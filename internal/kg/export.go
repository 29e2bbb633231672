package kg

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/graph"
)

// WriteDOT renders the graph (or a neighborhood of it) in Graphviz DOT
// format for documentation and debugging. maxEdges bounds output size;
// canonical-direction edges are preferred. Node shapes encode entity
// kinds so facility graphs are readable at a glance.
func (g *Graph) WriteDOT(w io.Writer, maxEdges int) error {
	var b strings.Builder
	b.WriteString("digraph ckg {\n  rankdir=LR;\n  node [fontsize=10];\n")
	used := map[int]bool{}
	var edges []Triple
	for _, tr := range g.Triples {
		r := g.Relations[tr.Rel]
		if r.ID > r.Inverse { // keep canonical direction only
			continue
		}
		edges = append(edges, tr)
		if len(edges) == maxEdges {
			break
		}
	}
	for _, tr := range edges {
		used[tr.Head] = true
		used[tr.Tail] = true
	}
	ids := make([]int, 0, len(used))
	for id := range used {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := g.Entities[id]
		shape := "ellipse"
		switch e.Kind {
		case KindItem:
			shape = "box"
		case KindUser:
			shape = "diamond"
		case KindDataType, KindDiscipline:
			shape = "hexagon"
		}
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", id, e.Name, shape)
	}
	for _, tr := range edges {
		fmt.Fprintf(&b, "  n%d -> n%d [label=%q fontsize=8];\n",
			tr.Head, tr.Tail, g.Relations[tr.Rel].Name)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Neighborhood returns a new Graph containing all entities within
// `hops` of center and every triple among them — the ego network used
// to visualize one data object's knowledge context (Fig. 1).
// adj must be frozen from g (graph.Freeze).
func (g *Graph) Neighborhood(adj *graph.CSR, center, hops int) *Graph {
	inside := map[int]bool{center: true}
	frontier := []int{center}
	for h := 0; h < hops; h++ {
		var next []int
		for _, n := range frontier {
			for _, t := range adj.NeighborTails(n) {
				if !inside[t] {
					inside[t] = true
					next = append(next, t)
				}
			}
		}
		frontier = next
	}
	out := NewGraph()
	idMap := map[int]int{}
	var ids []int
	for id := range inside {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := g.Entities[id]
		idMap[id] = out.AddEntity(e.Kind, e.Name)
	}
	relMap := map[int]int{}
	for _, tr := range g.Triples {
		if !inside[tr.Head] || !inside[tr.Tail] {
			continue
		}
		r := g.Relations[tr.Rel]
		if r.ID > r.Inverse {
			continue // inverse is re-added by AddTriple
		}
		canon, ok := relMap[r.ID]
		if !ok {
			if r.ID == r.Inverse {
				canon = out.AddSymmetricRelation(r.Name)
			} else {
				canon = out.AddRelation(r.Name, g.Relations[r.Inverse].Name)
			}
			relMap[r.ID] = canon
		}
		out.AddTriple(idMap[tr.Head], canon, idMap[tr.Tail])
	}
	return out
}

// DegreeHistogram returns degree counts (outgoing edges, inverse
// directions included) bucketed per entity kind — the structural sanity
// check behind Table I's link-avg column.
func (g *Graph) DegreeHistogram() map[EntityKind][]int {
	deg := make([]int, g.NumEntities())
	for _, tr := range g.Triples {
		deg[tr.Head]++
	}
	out := map[EntityKind][]int{}
	for _, e := range g.Entities {
		out[e.Kind] = append(out[e.Kind], deg[e.ID])
	}
	return out
}
