package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kg"
	"repro/internal/rng"
)

// randomGraph builds a randomized kg.Graph: a mix of entity kinds,
// paired and symmetric relations, and triples added through the normal
// builder API (so inverses and dedup behave as in production).
func randomGraph(seed int64, nEnt, nRel, nTriples int) *kg.Graph {
	g := kg.NewGraph()
	r := rng.New(seed)
	kinds := []kg.EntityKind{kg.KindUser, kg.KindItem, kg.KindSite, kg.KindDataType}
	ids := make([]int, nEnt)
	for i := range ids {
		ids[i] = g.AddEntity(kinds[i%len(kinds)], string(rune('A'+i%26))+string(rune('a'+i/26)))
	}
	rels := make([]int, 0, nRel)
	for i := 0; i < nRel; i++ {
		if i%3 == 0 {
			rels = append(rels, g.AddSymmetricRelation("sym"+string(rune('a'+i))))
		} else {
			rels = append(rels, g.AddRelation("rel"+string(rune('a'+i)), "inv"+string(rune('a'+i))))
		}
	}
	for i := 0; i < nTriples; i++ {
		g.AddTriple(ids[r.Intn(nEnt)], rels[r.Intn(len(rels))], ids[r.Intn(nEnt)])
	}
	return g
}

// TestFreezeRoundTripProperty is the CSR round-trip property test:
// freezing randomized graphs must preserve every triple exactly once,
// with consistent offsets, per-relation partitions, and no duplicates.
func TestFreezeRoundTripProperty(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		g := randomGraph(seed, 12+int(seed), 2+int(seed%5), 10+8*int(seed))
		c := graph.Freeze(g)

		if c.NumEntities() != g.NumEntities() || c.NumRelations() != g.NumRelations() {
			t.Fatalf("seed %d: counts mismatch", seed)
		}
		if c.NumEdges() != g.NumTriples() {
			t.Fatalf("seed %d: edges %d != triples %d", seed, c.NumEdges(), g.NumTriples())
		}

		// Every graph triple appears in the CSR exactly once.
		type tr struct{ h, r, tl int }
		seen := make(map[tr]int)
		offsets, rels, tails, heads := c.Offsets(), c.Rels(), c.Tails(), c.Heads()
		if len(offsets) != c.NumEntities()+1 || offsets[0] != 0 || offsets[len(offsets)-1] != c.NumEdges() {
			t.Fatalf("seed %d: malformed offsets", seed)
		}
		for h := 0; h < c.NumEntities(); h++ {
			lo, hi := c.Neighbors(h)
			if lo != offsets[h] || hi != offsets[h+1] || hi < lo {
				t.Fatalf("seed %d: Neighbors(%d) inconsistent with offsets", seed, h)
			}
			for i := lo; i < hi; i++ {
				if heads[i] != h {
					t.Fatalf("seed %d: heads[%d]=%d, want %d", seed, i, heads[i], h)
				}
				if i > lo && (rels[i] < rels[i-1] || (rels[i] == rels[i-1] && tails[i] <= tails[i-1])) {
					t.Fatalf("seed %d: edges of head %d not strictly sorted by (rel, tail)", seed, h)
				}
				seen[tr{h, rels[i], tails[i]}]++
			}
		}
		for _, x := range g.Triples {
			if seen[tr{x.Head, x.Rel, x.Tail}] != 1 {
				t.Fatalf("seed %d: triple %+v appears %d times in CSR",
					seed, x, seen[tr{x.Head, x.Rel, x.Tail}])
			}
		}

		// Per-relation partitions: NeighborsByRel must return exactly the
		// relation-r run of each head, for every relation (present or not).
		for h := 0; h < c.NumEntities(); h++ {
			for r := 0; r < c.NumRelations(); r++ {
				var want []int
				lo, hi := c.Neighbors(h)
				for i := lo; i < hi; i++ {
					if rels[i] == r {
						want = append(want, tails[i])
					}
				}
				got := c.TailsByRel(h, r)
				if len(got) != len(want) {
					t.Fatalf("seed %d: TailsByRel(%d,%d) len %d, want %d",
						seed, h, r, len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("seed %d: TailsByRel(%d,%d)[%d] = %d, want %d",
							seed, h, r, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNeighborViewsZeroAlloc is the acceptance gate for the hot path:
// every per-node accessor must be allocation-free.
func TestNeighborViewsZeroAlloc(t *testing.T) {
	g := randomGraph(1, 40, 5, 300)
	c := graph.Freeze(g)
	var sink int
	allocs := testing.AllocsPerRun(100, func() {
		for h := 0; h < c.NumEntities(); h++ {
			lo, hi := c.Neighbors(h)
			sink += hi - lo
			for _, tl := range c.NeighborTails(h) {
				sink += tl
			}
			for _, r := range c.NeighborRels(h) {
				sink += r
			}
			for r := 0; r < c.NumRelations(); r++ {
				rlo, rhi := c.NeighborsByRel(h, r)
				sink += rhi - rlo
			}
			sink += c.Degree(h)
		}
	})
	if allocs != 0 {
		t.Fatalf("neighbor accessors allocated %.1f times per sweep, want 0", allocs)
	}
	_ = sink
}

// TestFromPartsRoundTrip rebuilds a CSR from its own exported arrays
// (the snapshot persistence path) and verifies it behaves identically.
func TestFromPartsRoundTrip(t *testing.T) {
	g := randomGraph(5, 25, 4, 120)
	c := graph.Freeze(g)
	c2, err := graph.FromParts(c.NumEntities(), c.NumRelations(), c.Offsets(), c.Rels(), c.Tails())
	if err != nil {
		t.Fatalf("FromParts: %v", err)
	}
	if c2.NumEdges() != c.NumEdges() || c2.MaxDegree() != c.MaxDegree() {
		t.Fatal("rebuilt CSR differs")
	}
	for h := 0; h < c.NumEntities(); h++ {
		for r := 0; r < c.NumRelations(); r++ {
			alo, ahi := c.NeighborsByRel(h, r)
			blo, bhi := c2.NeighborsByRel(h, r)
			if alo != blo || ahi != bhi {
				t.Fatalf("NeighborsByRel(%d,%d) differs after FromParts", h, r)
			}
		}
		if len(c.Heads()) != len(c2.Heads()) || c.Heads()[c.Offsets()[h]] != c2.Heads()[c2.Offsets()[h]] {
			_ = h
		}
	}
}

// TestFromPartsRejectsMalformed exercises every validation branch:
// snapshot corruption must surface as an error, never a panic or a
// silently wrong graph.
func TestFromPartsRejectsMalformed(t *testing.T) {
	cases := []struct {
		name          string
		nEnt, nRel    int
		offsets, rels []int
		tails         []int
	}{
		{"negative counts", -1, 2, []int{0}, nil, nil},
		{"offsets length", 2, 1, []int{0, 1}, []int{0}, []int{0}},
		{"offsets start", 2, 1, []int{1, 1, 1}, []int{0}, []int{0}},
		{"offsets order", 2, 1, []int{0, 2, 1}, []int{0}, []int{0}},
		{"edge arrays", 1, 1, []int{0, 2}, []int{0, 0}, []int{0}},
		{"rel range", 1, 1, []int{0, 1}, []int{1}, []int{0}},
		{"tail range", 1, 1, []int{0, 1}, []int{0}, []int{5}},
		{"edge order", 1, 2, []int{0, 2}, []int{1, 0}, []int{0, 0}},
		{"dup edge order", 1, 1, []int{0, 2}, []int{0, 0}, []int{1, 0}},
	}
	for _, tc := range cases {
		if _, err := graph.FromParts(tc.nEnt, tc.nRel, tc.offsets, tc.rels, tc.tails); err == nil {
			t.Errorf("%s: FromParts accepted malformed input", tc.name)
		}
	}
}

// TestDegreeStats checks the degree summary on a hand-built graph.
func TestDegreeStats(t *testing.T) {
	g := kg.NewGraph()
	a := g.AddEntity(kg.KindItem, "a")
	b := g.AddEntity(kg.KindItem, "b")
	cEnt := g.AddEntity(kg.KindItem, "c")
	g.AddEntity(kg.KindItem, "isolated")
	r := g.AddRelation("r", "rInv")
	g.AddTriple(a, r, b)
	g.AddTriple(a, r, cEnt)
	c := graph.Freeze(g)
	st := c.Stats()
	if st.Entities != 4 || st.Edges != 4 { // 2 facts + 2 inverses
		t.Fatalf("stats %+v", st)
	}
	if st.Max != 2 || st.Min != 0 || st.Isolated != 1 {
		t.Fatalf("degree stats %+v", st)
	}
	if st.Mean != 1.0 {
		t.Fatalf("mean %v", st.Mean)
	}
	if c.MaxDegree() != 2 || c.Degree(a) != 2 {
		t.Fatalf("Degree(a)=%d MaxDegree=%d", c.Degree(a), c.MaxDegree())
	}
}
