package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/kg"
)

// legacyFindPaths is the historical BFS path enumeration (per-state
// path copies and all), reading the CSR's raw arrays, kept here as the
// reference the scratch-reusing iterative-deepening implementation must
// match path-for-path, in order.
func legacyFindPaths(c *graph.CSR, src, dst, maxLen, maxPaths int) []graph.Path {
	offsets, rels, tails := c.Offsets(), c.Rels(), c.Tails()
	type state struct {
		node int
		path graph.Path
	}
	var out []graph.Path
	queue := []state{{node: src}}
	for len(queue) > 0 && len(out) < maxPaths {
		cur := queue[0]
		queue = queue[1:]
		if len(cur.path) >= maxLen {
			continue
		}
		for i := offsets[cur.node]; i < offsets[cur.node+1] && len(out) < maxPaths; i++ {
			next := tails[i]
			visited := next == src
			for _, st := range cur.path {
				if st.Tail == next {
					visited = true
					break
				}
			}
			if visited {
				continue
			}
			np := make(graph.Path, len(cur.path)+1)
			copy(np, cur.path)
			np[len(cur.path)] = graph.Step{Head: cur.node, Rel: rels[i], Tail: next}
			if next == dst {
				out = append(out, np)
				continue
			}
			queue = append(queue, state{node: next, path: np})
		}
	}
	return out
}

func pathsEqual(a, b []graph.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestFindPathsMatchesLegacyBFS checks full output-sequence equality
// (paths AND their order) against the historical BFS on randomized
// graphs, across a grid of (src, dst, maxLen, maxPaths) including tight
// truncation limits.
func TestFindPathsMatchesLegacyBFS(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := randomGraph(seed, 14, 3, 60)
		c := graph.Freeze(g)
		f := c.PathFinder()
		n := c.NumEntities()
		for src := 0; src < n; src += 3 {
			for dst := 0; dst < n; dst += 4 {
				for _, maxLen := range []int{1, 2, 4} {
					for _, maxPaths := range []int{1, 3, 100} {
						want := legacyFindPaths(c, src, dst, maxLen, maxPaths)
						got := f.FindPaths(src, dst, maxLen, maxPaths)
						if !pathsEqual(got, want) {
							t.Fatalf("seed %d src=%d dst=%d maxLen=%d maxPaths=%d:\n got %v\nwant %v",
								seed, src, dst, maxLen, maxPaths, got, want)
						}
					}
				}
			}
		}
	}
}

// TestFindPathsEdgeCases pins the guard behavior.
func TestFindPathsEdgeCases(t *testing.T) {
	g := randomGraph(2, 10, 2, 40)
	c := graph.Freeze(g)
	f := c.PathFinder()
	if p := f.FindPaths(3, 3, 4, 10); p != nil {
		t.Errorf("src==dst: got %d paths, want none", len(p))
	}
	if p := f.FindPaths(0, 1, 0, 10); p != nil {
		t.Errorf("maxLen=0: got %d paths, want none", len(p))
	}
	if p := f.FindPaths(0, 1, 4, 0); p != nil {
		t.Errorf("maxPaths=0: got %d paths, want none", len(p))
	}
	if p := f.FindPaths(-1, 1, 4, 10); p != nil {
		t.Errorf("src out of range: got %d paths, want none", len(p))
	}
	if p := f.FindPaths(0, c.NumEntities(), 4, 10); p != nil {
		t.Errorf("dst out of range: got %d paths, want none", len(p))
	}
}

// TestFindPathsScratchReuse verifies the allocation contract: beyond
// the emitted paths themselves, repeated searches on one PathFinder
// perform O(1) allocations (they reuse the visited bitmap and working
// path; the returned slice is the only growth). A search with no hits
// must be allocation-free after warmup.
func TestFindPathsScratchReuse(t *testing.T) {
	g := kg.NewGraph()
	a := g.AddEntity(kg.KindItem, "a")
	b := g.AddEntity(kg.KindItem, "b")
	island := g.AddEntity(kg.KindItem, "island")
	r := g.AddRelation("r", "rInv")
	g.AddTriple(a, r, b)
	c := graph.Freeze(g)
	f := c.PathFinder()
	f.FindPaths(a, island, 4, 10) // warmup: sizes the visited bitmap
	allocs := testing.AllocsPerRun(100, func() {
		if p := f.FindPaths(a, island, 4, 10); p != nil {
			t.Fatal("unexpected path to island")
		}
	})
	if allocs != 0 {
		t.Fatalf("hitless FindPaths allocated %.1f times per call, want 0", allocs)
	}
}
