// Package kg implements the knowledge-graph substrate of the paper: a
// heterogeneous graph whose nodes are typed entities (users, data
// objects, instruments, locations, data types, disciplines, ...) and
// whose edges are typed relations stored as (head, relation, tail)
// triples. It provides entity/relation registries, inverse relations,
// entity alignment for merging subgraphs into the collaborative
// knowledge graph (CKG), rendering of the "high-order connectivity"
// paths of §II-B, and the summary statistics of Table I. The frozen CSR
// adjacency and the path search over it live in package graph.
package kg

import (
	"fmt"

	"repro/internal/graph"
)

// EntityKind labels the node types that occur in facility knowledge
// graphs. New kinds can be added freely; the models treat kinds
// uniformly and only the CKG assembly logic inspects them.
type EntityKind string

// Entity kinds used by the OOI/GAGE facility models and the CKG.
const (
	KindUser       EntityKind = "user"
	KindItem       EntityKind = "item" // a queryable data object
	KindInstrument EntityKind = "instrument"
	KindSite       EntityKind = "site"   // deployment site / station
	KindRegion     EntityKind = "region" // research array / state
	KindDataType   EntityKind = "dataType"
	KindDiscipline EntityKind = "discipline"
	KindCity       EntityKind = "city"
	KindOrg        EntityKind = "organization"
	KindMetadata   EntityKind = "metadata" // auxiliary MD attributes (noise)
)

// Entity is a node in the knowledge graph.
type Entity struct {
	ID   int
	Kind EntityKind
	Name string
}

// Relation is an edge type. Every relation registered through
// AddRelation gets a paired inverse (§IV: "R contains relations in both
// the canonical direction and the inverse direction").
type Relation struct {
	ID      int
	Name    string
	Inverse int // ID of the inverse relation; may equal ID for symmetric relations
}

// Triple is one (head, relation, tail) fact.
type Triple struct {
	Head, Rel, Tail int
}

// Graph is a mutable typed multigraph.
type Graph struct {
	Entities  []Entity
	Relations []Relation
	Triples   []Triple

	byKey   map[string]int // Kind/Name -> entity ID
	relByNm map[string]int
	seen    map[Triple]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{
		byKey:   make(map[string]int),
		relByNm: make(map[string]int),
		seen:    make(map[Triple]struct{}),
	}
}

func key(kind EntityKind, name string) string { return string(kind) + "/" + name }

// AddEntity registers (kind, name) and returns its ID; repeated calls
// with the same key return the existing ID (this is what makes entity
// alignment work when merging subgraphs).
func (g *Graph) AddEntity(kind EntityKind, name string) int {
	k := key(kind, name)
	if id, ok := g.byKey[k]; ok {
		return id
	}
	id := len(g.Entities)
	g.Entities = append(g.Entities, Entity{ID: id, Kind: kind, Name: name})
	g.byKey[k] = id
	return id
}

// Entity returns the ID of (kind, name) and whether it exists.
func (g *Graph) Entity(kind EntityKind, name string) (int, bool) {
	id, ok := g.byKey[key(kind, name)]
	return id, ok
}

// AddRelation registers a canonical relation and its inverse, returning
// the canonical relation's ID. Calling it again with the same name
// returns the existing ID. If only the inverse name is already
// registered — by an earlier pairing in the other orientation, or as a
// symmetric relation — the existing pairing is reused (the ID of that
// relation's inverse is returned) rather than shadowing the registered
// name with a clashing duplicate; this is what lets Merge align
// relations across graphs that declared them differently. Equal name
// and inverseName degrade to AddSymmetricRelation.
func (g *Graph) AddRelation(name, inverseName string) int {
	if id, ok := g.relByNm[name]; ok {
		return id
	}
	if name == inverseName {
		return g.AddSymmetricRelation(name)
	}
	if inv, ok := g.relByNm[inverseName]; ok {
		return g.Relations[inv].Inverse
	}
	id := len(g.Relations)
	inv := id + 1
	g.Relations = append(g.Relations, Relation{ID: id, Name: name, Inverse: inv})
	g.Relations = append(g.Relations, Relation{ID: inv, Name: inverseName, Inverse: id})
	g.relByNm[name] = id
	g.relByNm[inverseName] = inv
	return id
}

// AddSymmetricRelation registers a relation that is its own inverse
// (e.g. Interact between two users in the same city).
func (g *Graph) AddSymmetricRelation(name string) int {
	if id, ok := g.relByNm[name]; ok {
		return id
	}
	id := len(g.Relations)
	g.Relations = append(g.Relations, Relation{ID: id, Name: name, Inverse: id})
	g.relByNm[name] = id
	return id
}

// Relation returns the ID of a relation by name.
func (g *Graph) Relation(name string) (int, bool) {
	id, ok := g.relByNm[name]
	return id, ok
}

// AddTriple records (head, rel, tail) and the inverse fact
// (tail, inverse(rel), head). Duplicate triples are ignored so the graph
// stays a set of facts. It returns true if the fact was new.
func (g *Graph) AddTriple(head, rel, tail int) bool {
	tr := Triple{Head: head, Rel: rel, Tail: tail}
	if _, dup := g.seen[tr]; dup {
		return false
	}
	g.seen[tr] = struct{}{}
	g.Triples = append(g.Triples, tr)
	inv := g.Relations[rel].Inverse
	itr := Triple{Head: tail, Rel: inv, Tail: head}
	if _, dup := g.seen[itr]; !dup {
		g.seen[itr] = struct{}{}
		g.Triples = append(g.Triples, itr)
	}
	return true
}

// HasTriple reports whether the exact fact is present.
func (g *Graph) HasTriple(head, rel, tail int) bool {
	_, ok := g.seen[Triple{Head: head, Rel: rel, Tail: tail}]
	return ok
}

// NumEntities returns the number of registered entities.
func (g *Graph) NumEntities() int { return len(g.Entities) }

// NumRelations returns the number of registered relations (inverses
// included).
func (g *Graph) NumRelations() int { return len(g.Relations) }

// NumTriples returns the number of stored facts (inverses included).
func (g *Graph) NumTriples() int { return len(g.Triples) }

// EachTriple calls yield for every stored fact (inverse directions
// included) in insertion order. It implements graph.Source, so a Graph
// can be frozen into the immutable CSR core with graph.Freeze.
func (g *Graph) EachTriple(yield func(head, rel, tail int)) {
	for _, tr := range g.Triples {
		yield(tr.Head, tr.Rel, tr.Tail)
	}
}

// EntitiesOfKind returns the IDs of all entities of the given kind, in
// ascending ID order.
func (g *Graph) EntitiesOfKind(kind EntityKind) []int {
	var out []int
	for _, e := range g.Entities {
		if e.Kind == kind {
			out = append(out, e.ID)
		}
	}
	return out
}

// Merge copies every entity and triple of other into g, aligning
// entities by (Kind, Name) — the paper's "entity alignment" (§IV). It
// returns the mapping from other's entity IDs to g's.
//
// Relations align by name, carrying inverse-name pairings across: a
// pair known to g under either of its two names (even in the flipped
// orientation, or collapsed to a symmetric relation) maps onto the
// existing registration instead of creating a same-named duplicate, so
// symmetric relations keep their self-inverse through a merge.
func (g *Graph) Merge(other *Graph) []int {
	idMap, _ := g.MergeMapped(other, nil)
	return idMap
}

// MergeMapped is Merge with a rename hook: every entity of other is
// registered under rename(kind, name) (nil keeps names unchanged). It
// returns both the entity and the relation ID mappings from other's
// IDs to g's. The hook is what gives a federation its namespaced
// entity IDs — facility-local kinds get a facility prefix so merging N
// per-facility CKGs can never align unrelated entities, while shared
// vocabulary kinds keep their global names and align deliberately.
func (g *Graph) MergeMapped(other *Graph, rename func(kind EntityKind, name string) string) (entMap, relMap []int) {
	entMap = make([]int, len(other.Entities))
	for i, e := range other.Entities {
		name := e.Name
		if rename != nil {
			name = rename(e.Kind, name)
		}
		entMap[i] = g.AddEntity(e.Kind, name)
	}
	relMap = make([]int, len(other.Relations))
	done := make([]bool, len(other.Relations))
	for i, r := range other.Relations {
		if done[i] {
			continue
		}
		if r.Inverse == r.ID {
			relMap[i] = g.AddSymmetricRelation(r.Name)
			done[i] = true
			continue
		}
		canon := g.AddRelation(r.Name, other.Relations[r.Inverse].Name)
		relMap[i] = canon
		relMap[r.Inverse] = g.Relations[canon].Inverse
		done[i] = true
		done[r.Inverse] = true
	}
	for _, tr := range other.Triples {
		g.AddTriple(entMap[tr.Head], relMap[tr.Rel], entMap[tr.Tail])
	}
	return entMap, relMap
}

// Stats summarizes a graph for Table I.
type Stats struct {
	Entities  int
	Relations int     // canonical relations only (paper counts these)
	Triples   int     // canonical-direction triples only
	LinkAvg   float64 // average links per item entity
}

// ComputeStats derives the Table I row for g. Canonical relations are
// those whose ID is less than their inverse's (symmetric relations count
// once); canonical triples are counted the same way.
func (g *Graph) ComputeStats() Stats {
	var rels int
	for _, r := range g.Relations {
		if r.ID <= r.Inverse {
			rels++
		}
	}
	var triples int
	for _, tr := range g.Triples {
		r := g.Relations[tr.Rel]
		if r.ID < r.Inverse || (r.ID == r.Inverse && tr.Head <= tr.Tail) {
			triples++
		}
	}
	// link-avg: average degree (either direction) of item entities.
	deg := make(map[int]int)
	for _, tr := range g.Triples {
		deg[tr.Head]++
	}
	items := g.EntitiesOfKind(KindItem)
	var totalDeg int
	for _, id := range items {
		totalDeg += deg[id]
	}
	linkAvg := 0.0
	if len(items) > 0 {
		linkAvg = float64(totalDeg) / float64(len(items))
	}
	return Stats{
		Entities:  g.NumEntities(),
		Relations: rels,
		Triples:   triples,
		LinkAvg:   linkAvg,
	}
}

// String renders a stats row.
func (s Stats) String() string {
	return fmt.Sprintf("entities=%d relations=%d triples=%d link-avg=%.1f",
		s.Entities, s.Relations, s.Triples, s.LinkAvg)
}

// FormatSteps renders a CSR step path (graph.Path) using entity and
// relation names in arrow notation: "head -[rel]-> tail -[rel]-> ...".
func (g *Graph) FormatSteps(p graph.Path) string {
	if len(p) == 0 {
		return ""
	}
	s := g.Entities[p[0].Head].Name
	for _, st := range p {
		s += fmt.Sprintf(" -[%s]-> %s", g.Relations[st.Rel].Name, g.Entities[st.Tail].Name)
	}
	return s
}
