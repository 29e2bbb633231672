package graph

// Step is one edge of a path, with its head made explicit so a path
// renders without consulting the graph's offsets.
type Step struct {
	Head, Rel, Tail int
}

// Path is a sequence of steps connecting two entities — the "high-order
// connectivity" chains of the paper's Fig. 1/2.
type Path []Step

// PathFinder enumerates simple paths over a CSR-ordered edge layout.
// It owns reusable scratch state (the visited bitmap and the working
// path), so repeated searches allocate only the emitted paths; it is
// NOT safe for concurrent use — build one per goroutine.
type PathFinder struct {
	offsets, rels, tails []int
	visited              []bool
	path                 Path
}

// PathFinder returns a finder over c's edges. Its scratch is sized on
// the first search and reused by later ones.
func (c *CSR) PathFinder() *PathFinder {
	return &PathFinder{offsets: c.offsets, rels: c.rels, tails: c.tails}
}

// FindPaths enumerates up to maxPaths simple paths from src to dst of
// length at most maxLen edges. It is a convenience over PathFinder for
// one-shot searches; loops should reuse a PathFinder.
func (c *CSR) FindPaths(src, dst, maxLen, maxPaths int) []Path {
	return c.PathFinder().FindPaths(src, dst, maxLen, maxPaths)
}

// FindPaths runs the search. Ordering is fully deterministic and
// documented: paths are emitted shortest first, and paths of equal
// length in lexicographic order of their edge indexes — neighbor
// iteration follows the CSR's sorted (rel, tail) edge order. This is
// exactly the emission order of the historical BFS enumeration, but
// via iterative-deepening DFS over the reusable scratch: the old
// implementation copied the partial path into every frontier state
// (O(frontier·len) allocations), while this one allocates only the
// paths it returns.
//
// Paths never pass through src or dst mid-way (they are simple), and a
// search with src == dst finds nothing, as before.
func (f *PathFinder) FindPaths(src, dst, maxLen, maxPaths int) []Path {
	n := len(f.offsets) - 1
	if maxLen <= 0 || maxPaths <= 0 || src == dst ||
		src < 0 || src >= n || dst < 0 || dst >= n {
		return nil
	}
	if len(f.visited) < n {
		f.visited = make([]bool, n)
	}
	f.path = f.path[:0]
	var out []Path
	f.visited[src] = true
	// Iterative deepening: depth limit L sweeps 1..maxLen, each sweep
	// emitting exactly the length-L paths, so output is shortest-first.
	// Re-walking shorter prefixes costs at most a factor maxLen (tiny —
	// explain queries use maxLen ≤ 5) and needs no per-state copies.
	for limit := 1; limit <= maxLen && len(out) < maxPaths; limit++ {
		out = f.dfs(src, dst, limit, maxPaths, out)
	}
	f.visited[src] = false
	return out
}

// dfs extends the current path from node by one edge; at the depth
// limit it emits dst hits, otherwise it recurses into unvisited tails.
func (f *PathFinder) dfs(node, dst, remaining, maxPaths int, out []Path) []Path {
	lo, hi := f.offsets[node], f.offsets[node+1]
	for i := lo; i < hi && len(out) < maxPaths; i++ {
		next := f.tails[i]
		if remaining == 1 {
			if next == dst {
				p := make(Path, len(f.path)+1)
				copy(p, f.path)
				p[len(f.path)] = Step{Head: node, Rel: f.rels[i], Tail: next}
				out = append(out, p)
			}
			continue
		}
		// next == dst at depth < limit was already emitted in an earlier
		// sweep; simple paths also never revisit nodes on the stack.
		if next == dst || f.visited[next] {
			continue
		}
		f.visited[next] = true
		f.path = append(f.path, Step{Head: node, Rel: f.rels[i], Tail: next})
		out = f.dfs(next, dst, remaining-1, maxPaths, out)
		f.path = f.path[:len(f.path)-1]
		f.visited[next] = false
	}
	return out
}
