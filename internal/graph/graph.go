// Package graph is the immutable graph core shared by training,
// evaluation, and serving (DESIGN.md §9). It freezes a mutable builder
// graph (kg.Graph) into a relation-partitioned CSR (compressed sparse
// row) layout: one flat edge array sorted by (head, relation, tail)
// with an offsets array delimiting each head's neighborhood, plus a
// per-head relation segment index so the edges of one (head, relation)
// pair are an O(1)-addressable contiguous slice.
//
// The CSR is strictly read-only after Freeze. Every accessor returns
// either scalars or sub-slice views of the frozen arrays — no
// allocation, no copying — which is what makes it safe to share one
// instance across the CKAT propagation layers, the baseline models'
// neighbor samplers, the evaluation protocol, and the serving
// process's /similar and /explain handlers concurrently.
//
// Edges are ordered by head, then relation, then tail (duplicates
// removed by the builder), the order of the historical edge-list sort,
// so code migrated from the edge-list era produces bit-identical
// numerical results on the CSR (enforced by the repository's golden
// tests).
package graph

// Source is the minimal builder interface Freeze consumes. *kg.Graph
// implements it; the indirection keeps this package free of kg imports
// so kg can consume CSRs and their paths without an import cycle.
type Source interface {
	// NumEntities returns the number of nodes; entity IDs are dense in
	// [0, NumEntities).
	NumEntities() int
	// NumRelations returns the number of relation types (inverse
	// directions included); relation IDs are dense in [0, NumRelations).
	NumRelations() int
	// EachTriple calls yield for every stored (head, rel, tail) fact,
	// inverse directions included. Order is irrelevant: Freeze sorts.
	EachTriple(yield func(head, rel, tail int))
}

// CSR is the frozen, immutable, relation-partitioned graph. The zero
// value is not usable; build one with Freeze or FromParts.
type CSR struct {
	nEnt int
	nRel int

	// Edge arrays, len NumEdges, sorted by (head, rel, tail).
	heads []int
	rels  []int
	tails []int
	// offsets, len nEnt+1: edges of head h are [offsets[h], offsets[h+1]).
	offsets []int

	// Relation segment index: head h's distinct-relation runs are
	// segments segOff[h]..segOff[h+1]; segment s covers relation
	// segRel[s] over edges [segStart[s], segStart[s+1]).
	segOff   []int
	segRel   []int
	segStart []int // len nSeg+1, final entry == NumEdges

	maxDeg int
}

// Freeze builds the CSR from a triple source. O(E log d) where d is
// the max degree: edges are bucketed by head with a counting sort, then
// each head's run is sorted by (rel, tail).
func Freeze(src Source) *CSR {
	c := &CSR{nEnt: src.NumEntities(), nRel: src.NumRelations()}
	c.offsets = make([]int, c.nEnt+1)
	var e int
	src.EachTriple(func(h, _, _ int) {
		c.offsets[h+1]++
		e++
	})
	for i := 1; i <= c.nEnt; i++ {
		c.offsets[i] += c.offsets[i-1]
	}
	c.heads = make([]int, e)
	c.rels = make([]int, e)
	c.tails = make([]int, e)
	cursor := make([]int, c.nEnt)
	src.EachTriple(func(h, r, t int) {
		i := c.offsets[h] + cursor[h]
		cursor[h]++
		c.heads[i] = h
		c.rels[i] = r
		c.tails[i] = t
	})
	for h := 0; h < c.nEnt; h++ {
		sortEdges(c.rels, c.tails, c.offsets[h], c.offsets[h+1])
	}
	c.buildSegments()
	return c
}

// FromParts adopts pre-sorted CSR arrays (for example, arrays restored
// from a persisted model snapshot) without copying them. The slices
// become owned by the CSR and must not be mutated afterwards. It
// verifies the structural invariants — offsets monotone and spanning
// the edge arrays, rels/tails in range, edges sorted by (rel, tail)
// within each head — and reports the first violation.
func FromParts(numEntities, numRelations int, offsets, rels, tails []int) (*CSR, error) {
	if numEntities < 0 || numRelations < 0 {
		return nil, errNegativeCounts
	}
	if len(offsets) != numEntities+1 {
		return nil, errOffsetsLength
	}
	if len(offsets) > 0 && offsets[0] != 0 {
		return nil, errOffsetsStart
	}
	e := len(rels)
	if len(tails) != e || (numEntities >= 0 && offsets[numEntities] != e) {
		return nil, errEdgeLength
	}
	for h := 0; h < numEntities; h++ {
		if offsets[h+1] < offsets[h] || offsets[h+1] > e {
			return nil, errOffsetsOrder
		}
	}
	for h := 0; h < numEntities; h++ {
		for i := offsets[h]; i < offsets[h+1]; i++ {
			if rels[i] < 0 || rels[i] >= numRelations {
				return nil, errRelRange
			}
			if tails[i] < 0 || tails[i] >= numEntities {
				return nil, errTailRange
			}
			if i > offsets[h] && (rels[i] < rels[i-1] ||
				(rels[i] == rels[i-1] && tails[i] < tails[i-1])) {
				return nil, errEdgeOrder
			}
		}
	}
	c := &CSR{
		nEnt: numEntities, nRel: numRelations,
		offsets: offsets, rels: rels, tails: tails,
	}
	c.heads = make([]int, e)
	for h := 0; h < numEntities; h++ {
		for i := offsets[h]; i < offsets[h+1]; i++ {
			c.heads[i] = h
		}
	}
	c.buildSegments()
	return c, nil
}

// buildSegments derives the per-head relation segment index and the
// degree maximum from the sorted edge arrays.
func (c *CSR) buildSegments() {
	c.segOff = make([]int, c.nEnt+1)
	nSeg := 0
	for h := 0; h < c.nEnt; h++ {
		lo, hi := c.offsets[h], c.offsets[h+1]
		if d := hi - lo; d > c.maxDeg {
			c.maxDeg = d
		}
		for i := lo; i < hi; i++ {
			if i == lo || c.rels[i] != c.rels[i-1] {
				nSeg++
			}
		}
		c.segOff[h+1] = nSeg
	}
	c.segRel = make([]int, nSeg)
	c.segStart = make([]int, nSeg+1)
	s := 0
	for h := 0; h < c.nEnt; h++ {
		lo, hi := c.offsets[h], c.offsets[h+1]
		for i := lo; i < hi; i++ {
			if i == lo || c.rels[i] != c.rels[i-1] {
				c.segRel[s] = c.rels[i]
				c.segStart[s] = i
				s++
			}
		}
	}
	c.segStart[nSeg] = len(c.rels)
}

// sortEdges insertion-sorts the (rels, tails) pair arrays over [lo, hi)
// by (rel, tail). Neighborhoods are small and nearly sorted after the
// head bucketing, so insertion sort beats sort.Sort's interface
// overhead and allocates nothing.
func sortEdges(rels, tails []int, lo, hi int) {
	for i := lo + 1; i < hi; i++ {
		r, t := rels[i], tails[i]
		j := i - 1
		for j >= lo && (rels[j] > r || (rels[j] == r && tails[j] > t)) {
			rels[j+1], tails[j+1] = rels[j], tails[j]
			j--
		}
		rels[j+1], tails[j+1] = r, t
	}
}

// NumEntities returns the node count.
func (c *CSR) NumEntities() int { return c.nEnt }

// NumRelations returns the relation-type count (inverses included).
func (c *CSR) NumRelations() int { return c.nRel }

// NumEdges returns the directed edge count (inverses included).
func (c *CSR) NumEdges() int { return len(c.tails) }

// Offsets returns the CSR offsets array (len NumEntities+1). Read-only.
func (c *CSR) Offsets() []int { return c.offsets }

// Heads returns the per-edge head array (len NumEdges), the segment
// vector for head-grouped reductions. Read-only.
func (c *CSR) Heads() []int { return c.heads }

// Rels returns the per-edge relation array. Read-only.
func (c *CSR) Rels() []int { return c.rels }

// Tails returns the per-edge tail array. Read-only.
func (c *CSR) Tails() []int { return c.tails }

// Neighbors returns the edge-index range [lo, hi) of head h: O(1), no
// allocation.
func (c *CSR) Neighbors(h int) (lo, hi int) {
	return c.offsets[h], c.offsets[h+1]
}

// NeighborRels returns the relation IDs of h's edges as a zero-copy
// slice view, parallel to NeighborTails.
func (c *CSR) NeighborRels(h int) []int {
	return c.rels[c.offsets[h]:c.offsets[h+1]]
}

// NeighborTails returns the tail entities of h's edges as a zero-copy
// slice view, parallel to NeighborRels.
func (c *CSR) NeighborTails(h int) []int {
	return c.tails[c.offsets[h]:c.offsets[h+1]]
}

// Degree returns the number of edges with head h.
func (c *CSR) Degree(h int) int { return c.offsets[h+1] - c.offsets[h] }

// MaxDegree returns the largest neighborhood size in the graph.
func (c *CSR) MaxDegree() int { return c.maxDeg }

// NeighborsByRel returns the edge-index range [lo, hi) of head h's
// relation-r edges — a contiguous slice of the relation partition,
// empty when h has no r-edges. The per-head segment index makes this a
// binary search over h's distinct relations (at most NumRelations, in
// practice a handful), with no allocation.
func (c *CSR) NeighborsByRel(h, r int) (lo, hi int) {
	sLo, sHi := c.segOff[h], c.segOff[h+1]
	for sLo < sHi {
		mid := int(uint(sLo+sHi) >> 1)
		if c.segRel[mid] < r {
			sLo = mid + 1
		} else {
			sHi = mid
		}
	}
	if sLo == c.segOff[h+1] || c.segRel[sLo] != r {
		return c.offsets[h], c.offsets[h] // empty range at the head's start
	}
	return c.segStart[sLo], c.segStart[sLo+1]
}

// TailsByRel returns h's relation-r neighbor entities as a zero-copy
// slice view (empty when none).
func (c *CSR) TailsByRel(h, r int) []int {
	lo, hi := c.NeighborsByRel(h, r)
	return c.tails[lo:hi]
}

// DegreeStats summarizes the degree distribution — the locality facts
// that motivate the CSR layout (propagation cost is degree-bound).
type DegreeStats struct {
	Entities int
	Edges    int
	Min, Max int
	Mean     float64
	Isolated int // entities with no edges
}

// Stats computes the degree statistics in one pass over offsets.
func (c *CSR) Stats() DegreeStats {
	st := DegreeStats{Entities: c.nEnt, Edges: c.NumEdges(), Max: c.maxDeg}
	if c.nEnt == 0 {
		return st
	}
	st.Min = c.Degree(0)
	for h := 0; h < c.nEnt; h++ {
		d := c.Degree(h)
		if d < st.Min {
			st.Min = d
		}
		if d == 0 {
			st.Isolated++
		}
	}
	st.Mean = float64(st.Edges) / float64(st.Entities)
	return st
}

// csrError is a distinct error type so FromParts failures are cheap
// constants.
type csrError string

func (e csrError) Error() string { return "graph: " + string(e) }

const (
	errNegativeCounts csrError = "negative entity or relation count"
	errOffsetsLength  csrError = "offsets length != entities+1"
	errOffsetsStart   csrError = "offsets[0] != 0"
	errOffsetsOrder   csrError = "offsets not monotone non-decreasing"
	errEdgeLength     csrError = "edge arrays inconsistent with offsets"
	errRelRange       csrError = "relation ID out of range"
	errTailRange      csrError = "tail entity out of range"
	errEdgeOrder      csrError = "edges not sorted by (rel, tail) within head"
)
