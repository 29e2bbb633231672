package kg

import (
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

func buildTiny(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph()
	o1 := g.AddEntity(KindItem, "obj1")
	o2 := g.AddEntity(KindItem, "obj2")
	pr := g.AddEntity(KindDataType, "Pressure")
	de := g.AddEntity(KindDataType, "Density")
	ph := g.AddEntity(KindDiscipline, "Physical")
	rT := g.AddRelation("dataType", "dataTypeOf")
	rD := g.AddRelation("dataDiscipline", "dataDisciplineOf")
	g.AddTriple(o1, rT, pr)
	g.AddTriple(o2, rT, de)
	g.AddTriple(pr, rD, ph)
	g.AddTriple(de, rD, ph)
	return g
}

func TestAddEntityDedup(t *testing.T) {
	g := NewGraph()
	a := g.AddEntity(KindUser, "u1")
	b := g.AddEntity(KindUser, "u1")
	c := g.AddEntity(KindItem, "u1") // same name, different kind
	if a != b {
		t.Fatal("same (kind,name) must return same ID")
	}
	if a == c {
		t.Fatal("different kinds must not collide")
	}
	if id, ok := g.Entity(KindUser, "u1"); !ok || id != a {
		t.Fatal("Entity lookup failed")
	}
	if _, ok := g.Entity(KindUser, "missing"); ok {
		t.Fatal("lookup of missing entity succeeded")
	}
}

func TestRelationInversePairing(t *testing.T) {
	g := NewGraph()
	r := g.AddRelation("measure", "measuredBy")
	inv := g.Relations[r].Inverse
	if g.Relations[inv].Name != "measuredBy" || g.Relations[inv].Inverse != r {
		t.Fatal("inverse relation not paired")
	}
	if again := g.AddRelation("measure", "measuredBy"); again != r {
		t.Fatal("AddRelation not idempotent")
	}
	sym := g.AddSymmetricRelation("interact")
	if g.Relations[sym].Inverse != sym {
		t.Fatal("symmetric relation must be its own inverse")
	}
}

func TestAddTripleAddsInverseAndDedups(t *testing.T) {
	g := NewGraph()
	a := g.AddEntity(KindItem, "a")
	b := g.AddEntity(KindDataType, "b")
	r := g.AddRelation("dataType", "dataTypeOf")
	if !g.AddTriple(a, r, b) {
		t.Fatal("first AddTriple returned false")
	}
	if g.NumTriples() != 2 {
		t.Fatalf("expected canonical+inverse = 2 triples, got %d", g.NumTriples())
	}
	inv := g.Relations[r].Inverse
	if !g.HasTriple(b, inv, a) {
		t.Fatal("inverse triple missing")
	}
	if g.AddTriple(a, r, b) {
		t.Fatal("duplicate AddTriple returned true")
	}
	if g.NumTriples() != 2 {
		t.Fatal("duplicate changed triple count")
	}
}

func TestComputeStats(t *testing.T) {
	g := buildTiny(t)
	s := g.ComputeStats()
	if s.Entities != 5 {
		t.Fatalf("entities = %d, want 5", s.Entities)
	}
	if s.Relations != 2 {
		t.Fatalf("canonical relations = %d, want 2", s.Relations)
	}
	if s.Triples != 4 {
		t.Fatalf("canonical triples = %d, want 4", s.Triples)
	}
	// Each of the two items has exactly 1 outgoing link (its inverse
	// lands on the data type, not the item).
	if s.LinkAvg != 1 {
		t.Fatalf("link-avg = %v, want 1", s.LinkAvg)
	}
}

func TestMergeAlignsEntities(t *testing.T) {
	g1 := buildTiny(t)
	g2 := NewGraph()
	o2 := g2.AddEntity(KindItem, "obj2") // same key as in g1 → must align
	site := g2.AddEntity(KindSite, "Axial Base")
	rL := g2.AddRelation("locatedAt", "locationOf")
	g2.AddTriple(o2, rL, site)

	before := g1.NumEntities()
	idMap := g2.Triples // keep vet quiet about unused
	_ = idMap
	m := g1.Merge(g2)
	// obj2 aligned, site is new → exactly one new entity.
	if g1.NumEntities() != before+1 {
		t.Fatalf("entities after merge = %d, want %d", g1.NumEntities(), before+1)
	}
	gotObj2, _ := g1.Entity(KindItem, "obj2")
	if m[o2] != gotObj2 {
		t.Fatal("merge did not align obj2")
	}
	rel, ok := g1.Relation("locatedAt")
	if !ok {
		t.Fatal("merged relation missing")
	}
	siteID, _ := g1.Entity(KindSite, "Axial Base")
	if !g1.HasTriple(gotObj2, rel, siteID) {
		t.Fatal("merged triple missing")
	}
}

func TestMergePreservesInversePairing(t *testing.T) {
	g1 := NewGraph()
	g2 := NewGraph()
	a := g2.AddEntity(KindItem, "a")
	b := g2.AddEntity(KindSite, "b")
	r := g2.AddRelation("locatedAt", "locationOf")
	sym := g2.AddSymmetricRelation("interact")
	g2.AddTriple(a, r, b)
	g2.AddTriple(a, sym, b)
	g1.Merge(g2)
	rid, _ := g1.Relation("locatedAt")
	iid, _ := g1.Relation("locationOf")
	if g1.Relations[rid].Inverse != iid || g1.Relations[iid].Inverse != rid {
		t.Fatal("inverse pairing lost in merge")
	}
	sid, _ := g1.Relation("interact")
	if g1.Relations[sid].Inverse != sid {
		t.Fatal("symmetric relation lost self-inverse in merge")
	}
}

// Regression: merging a graph that pairs ("relatedTo" ↔ "related")
// into one where "related" is a symmetric relation used to shadow the
// symmetric registration with a duplicate relation of the same name —
// after the merge, Relation("related") resolved to the duplicate and
// the original lost its name. The pairing must instead collapse onto
// the existing symmetric relation.
func TestMergeSymmetricRelationSurvivesPairedCollision(t *testing.T) {
	g1 := NewGraph()
	a1 := g1.AddEntity(KindItem, "a")
	b1 := g1.AddEntity(KindItem, "b")
	sym := g1.AddSymmetricRelation("related")
	g1.AddTriple(a1, sym, b1)

	g2 := NewGraph()
	a2 := g2.AddEntity(KindItem, "a")
	c2 := g2.AddEntity(KindItem, "c")
	rel := g2.AddRelation("relatedTo", "related")
	g2.AddTriple(a2, rel, c2)

	m := g1.Merge(g2)

	// The symmetric relation still owns its name and self-inverse.
	sid, ok := g1.Relation("related")
	if !ok || sid != sym {
		t.Fatalf("Relation(related) = (%d, %v), want original symmetric %d", sid, ok, sym)
	}
	if g1.Relations[sid].Inverse != sid {
		t.Fatalf("symmetric relation lost self-inverse: %+v", g1.Relations[sid])
	}
	// The name index stays consistent: every name resolves to a
	// relation actually carrying that name.
	for name, id := range g1.relByNm {
		if g1.Relations[id].Name != name {
			t.Fatalf("relByNm[%q] = %d (%q)", name, id, g1.Relations[id].Name)
		}
	}
	// g2's triple arrived through the collapsed relation (both
	// directions, since it is symmetric in g1).
	cID, _ := g1.Entity(KindItem, "c")
	if !g1.HasTriple(m[a2], sid, cID) || !g1.HasTriple(cID, sid, m[a2]) {
		t.Fatal("merged triple missing through the collapsed symmetric relation")
	}
}

// A pair registered in the flipped orientation must align onto the
// existing pairing rather than duplicate it.
func TestMergeAlignsFlippedInversePairing(t *testing.T) {
	g1 := NewGraph()
	s1 := g1.AddEntity(KindSite, "s")
	o1 := g1.AddEntity(KindItem, "o")
	contains := g1.AddRelation("contains", "containedBy")
	g1.AddTriple(s1, contains, o1)

	g2 := NewGraph()
	o2 := g2.AddEntity(KindItem, "o2")
	s2 := g2.AddEntity(KindSite, "s")
	containedBy := g2.AddRelation("containedBy", "contains")
	g2.AddTriple(o2, containedBy, s2)

	before := g1.NumRelations()
	m := g1.Merge(g2)
	if g1.NumRelations() != before {
		t.Fatalf("flipped pairing grew relations: %d -> %d", before, g1.NumRelations())
	}
	// g2's (o2 containedBy s) must land on g1's inverse of contains.
	inv := g1.Relations[contains].Inverse
	if !g1.HasTriple(m[o2], inv, s1) {
		t.Fatal("flipped-orientation triple not aligned onto existing pairing")
	}
	if !g1.HasTriple(s1, contains, m[o2]) {
		t.Fatal("canonical direction of the aligned triple missing")
	}
}

// AddRelation with identical canonical and inverse names is a
// self-inverse relation, not a two-row pair sharing one name.
func TestAddRelationEqualNamesIsSymmetric(t *testing.T) {
	g := NewGraph()
	id := g.AddRelation("adjacent", "adjacent")
	if g.Relations[id].Inverse != id {
		t.Fatalf("equal-name pairing not symmetric: %+v", g.Relations[id])
	}
	if g.NumRelations() != 1 {
		t.Fatalf("NumRelations = %d, want 1", g.NumRelations())
	}
}

func TestBuildAdjacencyCSRInvariants(t *testing.T) {
	g := buildTiny(t)
	adj := graph.Freeze(g)
	offsets, heads := adj.Offsets(), adj.Heads()
	if adj.NumEdges() != g.NumTriples() {
		t.Fatalf("edges %d != triples %d", adj.NumEdges(), g.NumTriples())
	}
	if len(offsets) != g.NumEntities()+1 {
		t.Fatal("offset length mismatch")
	}
	if offsets[0] != 0 || offsets[len(offsets)-1] != adj.NumEdges() {
		t.Fatal("offset boundary mismatch")
	}
	// Heads are sorted, and every edge inside a bucket has that head.
	for h := 0; h < g.NumEntities(); h++ {
		lo, hi := adj.Neighbors(h)
		for i := lo; i < hi; i++ {
			if heads[i] != h {
				t.Fatalf("edge %d in bucket %d has head %d", i, h, heads[i])
			}
		}
	}
}

func TestFindPathsHighOrderConnectivity(t *testing.T) {
	g := buildTiny(t)
	o1, _ := g.Entity(KindItem, "obj1")
	o2, _ := g.Entity(KindItem, "obj2")
	paths := graph.Freeze(g).FindPaths(o1, o2, 4, 10)
	if len(paths) == 0 {
		t.Fatal("no path found between obj1 and obj2")
	}
	// The Fig. 1 path: obj1 -dataType-> Pressure -dataDiscipline->
	// Physical <-dataDiscipline- Density <-dataType- obj2 has length 4.
	found := false
	for _, p := range paths {
		if len(p) == 4 {
			found = true
			if p[0].Head != o1 || p[len(p)-1].Tail != o2 {
				t.Fatal("path endpoints wrong")
			}
		}
	}
	if !found {
		t.Fatal("expected the 4-hop attribute path of Fig. 1")
	}
	s := g.FormatSteps(paths[0])
	if s == "" {
		t.Fatal("FormatSteps returned empty string")
	}
}

func TestFindPathsRespectsLimits(t *testing.T) {
	g := buildTiny(t)
	adj := graph.Freeze(g)
	o1, _ := g.Entity(KindItem, "obj1")
	o2, _ := g.Entity(KindItem, "obj2")
	if got := adj.FindPaths(o1, o2, 2, 10); len(got) != 0 {
		t.Fatalf("maxLen 2 should yield no paths, got %d", len(got))
	}
	many := adj.FindPaths(o1, o2, 6, 1)
	if len(many) > 1 {
		t.Fatalf("maxPaths 1 exceeded: %d", len(many))
	}
}

// FindPaths ordering is part of the API contract: shortest paths
// first, equal lengths in the CSR's sorted (rel, tail) neighbor order.
// Repeated calls must therefore return identical sequences.
func TestFindPathsDeterministicOrdering(t *testing.T) {
	g := buildTiny(t)
	f := graph.Freeze(g).PathFinder()
	o1, _ := g.Entity(KindItem, "obj1")
	o2, _ := g.Entity(KindItem, "obj2")
	ref := f.FindPaths(o1, o2, 6, 10)
	if len(ref) == 0 {
		t.Fatal("no paths found")
	}
	for i := 1; i < len(ref); i++ {
		if len(ref[i]) < len(ref[i-1]) {
			t.Fatalf("path %d shorter than path %d: not shortest-first", i, i-1)
		}
	}
	for trial := 0; trial < 5; trial++ {
		got := f.FindPaths(o1, o2, 6, 10)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: %d paths, want %d", trial, len(got), len(ref))
		}
		for i := range ref {
			if len(got[i]) != len(ref[i]) {
				t.Fatalf("trial %d path %d: length differs", trial, i)
			}
			for j := range ref[i] {
				if got[i][j] != ref[i][j] {
					t.Fatalf("trial %d path %d step %d: %+v != %+v",
						trial, i, j, got[i][j], ref[i][j])
				}
			}
		}
	}
}

// A reused PathFinder keeps its visited-state scratch: after a warmup
// call sizes it, a search that yields no paths must not allocate.
func TestFindPathsBoundedAllocations(t *testing.T) {
	g := buildTiny(t)
	island := g.AddEntity(KindItem, "island") // no triples: unreachable
	f := graph.Freeze(g).PathFinder()
	o1, _ := g.Entity(KindItem, "obj1")
	f.FindPaths(o1, island, 6, 10) // warmup: sizes the scratch
	allocs := testing.AllocsPerRun(50, func() {
		if p := f.FindPaths(o1, island, 6, 10); p != nil {
			t.Fatal("unexpected path to isolated entity")
		}
	})
	if allocs != 0 {
		t.Fatalf("hitless FindPaths allocated %.1f times per call, want 0", allocs)
	}
}

// Property: for any set of random triples, adjacency edge count is twice
// the canonical count for non-symmetric relations and offsets are
// monotone.
func TestAdjacencyProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		g := NewGraph()
		r := g.AddRelation("rel", "relOf")
		for i := 0; i+1 < len(raw); i += 2 {
			h := g.AddEntity(KindItem, string(rune('a'+raw[i]%26)))
			tl := g.AddEntity(KindDataType, string(rune('a'+raw[i+1]%26)))
			g.AddTriple(h, r, tl)
		}
		adj := graph.Freeze(g)
		if adj.NumEdges() != g.NumTriples() {
			return false
		}
		offsets := adj.Offsets()
		for i := 1; i < len(offsets); i++ {
			if offsets[i] < offsets[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
