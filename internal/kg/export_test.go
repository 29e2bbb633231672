package kg

import (
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestWriteDOT(t *testing.T) {
	g := buildTiny(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 100); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "digraph ckg {") || !strings.HasSuffix(out, "}\n") {
		t.Fatal("not a DOT digraph")
	}
	if !strings.Contains(out, `label="obj1"`) || !strings.Contains(out, "shape=box") {
		t.Fatalf("item node missing: %s", out)
	}
	if !strings.Contains(out, `label="dataType"`) {
		t.Fatal("edge labels missing")
	}
	// Canonical direction only: the inverse relation name must not
	// appear as an edge label.
	if strings.Contains(out, `label="dataTypeOf"`) {
		t.Fatal("inverse edges leaked into DOT output")
	}
}

func TestWriteDOTRespectsEdgeCap(t *testing.T) {
	g := buildTiny(t)
	var b strings.Builder
	if err := g.WriteDOT(&b, 1); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(b.String(), "->"); got != 1 {
		t.Fatalf("edge cap ignored: %d edges", got)
	}
}

func TestNeighborhood(t *testing.T) {
	g := buildTiny(t)
	adj := graph.Freeze(g)
	o1, _ := g.Entity(KindItem, "obj1")
	// 1 hop from obj1: obj1 + Pressure.
	ego := g.Neighborhood(adj, o1, 1)
	if ego.NumEntities() != 2 {
		t.Fatalf("1-hop ego has %d entities, want 2", ego.NumEntities())
	}
	// 2 hops: obj1, Pressure, Physical.
	ego2 := g.Neighborhood(adj, o1, 2)
	if ego2.NumEntities() != 3 {
		t.Fatalf("2-hop ego has %d entities, want 3", ego2.NumEntities())
	}
	if _, ok := ego2.Entity(KindDiscipline, "Physical"); !ok {
		t.Fatal("2-hop ego missing Physical")
	}
	// Triples among included entities are preserved with inverses.
	if ego2.NumTriples() != 4 { // obj1-Pressure, Pressure-Physical, + inverses
		t.Fatalf("ego triples = %d, want 4", ego2.NumTriples())
	}
	// 3 hops reaches Density (via Physical) and obj2 at 4: check growth.
	ego4 := g.Neighborhood(adj, o1, 4)
	if ego4.NumEntities() != g.NumEntities() {
		t.Fatalf("4-hop ego should cover the full tiny graph, got %d/%d",
			ego4.NumEntities(), g.NumEntities())
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := buildTiny(t)
	h := g.DegreeHistogram()
	if len(h[KindItem]) != 2 {
		t.Fatalf("item degrees = %v", h[KindItem])
	}
	for _, d := range h[KindItem] {
		if d != 1 {
			t.Fatalf("item degree %d, want 1", d)
		}
	}
	// Data types: each has inverse from item + forward to discipline = 2.
	for _, d := range h[KindDataType] {
		if d != 2 {
			t.Fatalf("dataType degree %d, want 2", d)
		}
	}
}
