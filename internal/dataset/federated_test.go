package dataset

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/facility"
	"repro/internal/kg"
	"repro/internal/trace"
)

// scaledOOI/scaledGAGE shrink the built-in schemas to test size while
// keeping both synthesis modes and both affinity shapes in play.
func scaledOOI() *facility.Schema {
	s := facility.BuiltinOOI()
	for i := range s.Synthesis.Grid.Plan {
		s.Synthesis.Grid.Plan[i].Sites = 1 + i%2
	}
	s.Affinity.NumUsers = 40
	s.Affinity.NumOrgs = 6
	s.Affinity.NumCities = 8
	s.Affinity.MeanQueries = 12
	return s
}

func scaledGAGE() *facility.Schema {
	s := facility.BuiltinGAGE()
	s.Synthesis.Stations.Stations = 60
	s.Synthesis.Stations.Cities = 12
	s.Affinity.NumUsers = 50
	s.Affinity.NumOrgs = 8
	s.Affinity.MeanQueries = 8
	return s
}

func TestBuildFederatedOOIGAGE(t *testing.T) {
	fed, err := BuildFederated([]*facility.Schema{scaledOOI(), scaledGAGE()}, AllSources(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(fed.Parts) != 2 || fed.Name != "OOI+GAGE" {
		t.Fatalf("parts=%d name=%q", len(fed.Parts), fed.Name)
	}
	ooi, gage := fed.Parts[0].Dataset, fed.Parts[1].Dataset
	if fed.NumUsers != ooi.NumUsers+gage.NumUsers || fed.NumItems != ooi.NumItems+gage.NumItems {
		t.Fatalf("federated sizes %d users / %d items, parts %d+%d / %d+%d",
			fed.NumUsers, fed.NumItems, ooi.NumUsers, gage.NumUsers, ooi.NumItems, gage.NumItems)
	}

	// Ranges and ownership lookups.
	if lo, hi := fed.UserRange(1); lo != ooi.NumUsers || hi != fed.NumUsers {
		t.Fatalf("GAGE user range [%d, %d)", lo, hi)
	}
	if lo, hi := fed.ItemRange(0); lo != 0 || hi != ooi.NumItems {
		t.Fatalf("OOI item range [%d, %d)", lo, hi)
	}
	if fed.PartOfUser(ooi.NumUsers-1) != 0 || fed.PartOfUser(ooi.NumUsers) != 1 {
		t.Fatal("PartOfUser boundary wrong")
	}
	if fed.PartOfItem(ooi.NumItems-1) != 0 || fed.PartOfItem(ooi.NumItems) != 1 {
		t.Fatal("PartOfItem boundary wrong")
	}
	if fed.PartByName("GAGE") != 1 || fed.PartByName("OOI") != 0 || fed.PartByName("nope") != -1 {
		t.Fatal("PartByName wrong")
	}

	// The split is the per-facility split, offset — per-facility
	// baselines and the federated model train on identical data.
	for u := 0; u < gage.NumUsers; u++ {
		gu := ooi.NumUsers + u
		if len(fed.TrainByUser[gu]) != len(gage.TrainByUser[u]) ||
			len(fed.TestByUser[gu]) != len(gage.TestByUser[u]) {
			t.Fatalf("user %d: split sizes diverge from the GAGE part", u)
		}
		for k, it := range gage.TrainByUser[u] {
			if fed.TrainByUser[gu][k] != ooi.NumItems+it {
				t.Fatalf("user %d train item %d not offset", u, k)
			}
		}
	}
	if len(fed.Train) != len(ooi.Train)+len(gage.Train) ||
		len(fed.Test) != len(ooi.Test)+len(gage.Test) {
		t.Fatal("federated split sizes are not the part sums")
	}
	if !fed.InTrain(ooi.NumUsers, ooi.NumItems+gage.TrainByUser[0][0]) {
		t.Fatal("InTrain misses an offset training pair")
	}

	// Entity names follow the namespacing scheme: items are
	// facility-prefixed, the shared product vocabulary is not.
	it0 := fed.Graph.Entities[fed.ItemEnt[0]]
	if it0.Kind != kg.KindItem || it0.Name != facility.Namespaced("OOI", ooi.Graph.Entities[ooi.ItemEnt[0]].Name) {
		t.Fatalf("first OOI item entity = %+v", it0)
	}
	itG := fed.Graph.Entities[fed.ItemEnt[ooi.NumItems]]
	if itG.Name != facility.Namespaced("GAGE", gage.Graph.Entities[gage.ItemEnt[0]].Name) {
		t.Fatalf("first GAGE item entity = %+v", itG)
	}
	if _, ok := fed.Graph.Entity(kg.KindDataType, "RINEX observation"); !ok {
		t.Fatal("GAGE product vocabulary lost its global name in the merge")
	}
	cities := gage.Graph.EntitiesOfKind(kg.KindCity)
	if len(cities) == 0 {
		t.Fatal("GAGE part has no city entities")
	}
	cityName := gage.Graph.Entities[cities[0]].Name
	if _, ok := fed.Graph.Entity(kg.KindCity, facility.Namespaced("GAGE", cityName)); !ok {
		t.Fatalf("GAGE city %q not namespaced in the merged graph", cityName)
	}

	// Interact survives relation mapping.
	if got, want := fed.Graph.Relations[fed.Interact].Name, ooi.Graph.Relations[ooi.Interact].Name; got != want {
		t.Fatalf("Interact maps to %q, want %q", got, want)
	}

	// Trace concatenation stays in bounds of the federated catalog.
	if len(fed.Trace.Records) != len(ooi.Trace.Records)+len(gage.Trace.Records) {
		t.Fatal("federated trace lost records")
	}
	for _, org := range fed.Trace.Orgs {
		if org.ModalSite < 0 || org.ModalSite >= len(fed.Trace.Facility.Sites) ||
			org.ModalType < 0 || org.ModalType >= len(fed.Trace.Facility.DataTypes) {
			t.Fatalf("org %q references out-of-range modal site/type", org.Name)
		}
	}

	// The merged graph freezes into a CSR consistent with itself.
	csr := fed.CSR()
	if csr == nil {
		t.Fatal("CSR freeze failed")
	}
	if got, want := csr.NumEdges(), fed.Graph.NumTriples(); got != want {
		t.Fatalf("CSR has %d edges, graph %d triples", got, want)
	}
}

func TestBuildFederatedRejects(t *testing.T) {
	if _, err := BuildFederated(nil, AllSources(), 1); !errors.Is(err, facility.ErrInvalidSchema) {
		t.Fatalf("zero schemas: %v", err)
	}
	if _, err := BuildFederated([]*facility.Schema{scaledGAGE(), scaledGAGE()}, AllSources(), 1); !errors.Is(err, facility.ErrInvalidSchema) {
		t.Fatalf("duplicate names: %v", err)
	}
	a := buildSolo(t, scaledOOI(), Sources{UIG: true}, 3)
	b := buildSolo(t, scaledGAGE(), Sources{UIG: true, LOC: true}, 3)
	if _, err := Federate(a, b); !errors.Is(err, facility.ErrInvalidCatalog) {
		t.Fatalf("mismatched sources: %v", err)
	}
}

// buildSolo builds one facility's standalone dataset the way
// BuildFederated builds each part.
func buildSolo(t *testing.T, s *facility.Schema, src Sources, seed int64) *Dataset {
	t.Helper()
	cat, err := s.Instantiate(seed)
	if err != nil {
		t.Fatal(err)
	}
	return Build(trace.Generate(cat, trace.ConfigFrom(s.Affinity), seed), src, seed)
}

// TestFederationSubgraphIsomorphism is the randomized property test:
// for random N-schema federations, every per-facility subgraph of the
// merged CKG is isomorphic (under EntMap/RelMap) to the facility's
// individually built CKG — namespacing never collides, and the merge
// neither drops nor duplicates triples.
func TestFederationSubgraphIsomorphism(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized federation property test")
	}
	for trial := 0; trial < 6; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		n := 2 + r.Intn(3)
		schemas := make([]*facility.Schema, n)
		for i := range schemas {
			schemas[i] = randomSchema(r, i)
		}
		fed, err := BuildFederated(schemas, AllSources(), int64(trial))
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		checkIsomorphism(t, trial, fed)
	}
}

func checkIsomorphism(t *testing.T, trial int, fed *Federated) {
	t.Helper()
	// 1. Completeness: every part triple exists in the merged graph
	// under the part's entity/relation mapping.
	union := make(map[kg.Triple]struct{})
	for _, p := range fed.Parts {
		p.Dataset.Graph.EachTriple(func(h, rel, tl int) {
			m := kg.Triple{Head: p.EntMap[h], Rel: p.RelMap[rel], Tail: p.EntMap[tl]}
			if !fed.Graph.HasTriple(m.Head, m.Rel, m.Tail) {
				t.Fatalf("trial %d: part %s triple (%d,%d,%d) missing from merged graph",
					trial, p.Name, h, rel, tl)
			}
			union[m] = struct{}{}
		})
	}
	// 2. Exactness: the merged graph holds exactly the union — nothing
	// dropped (checked above), nothing duplicated or invented.
	if len(union) != fed.Graph.NumTriples() {
		t.Fatalf("trial %d: union of mapped part triples has %d facts, merged graph %d",
			trial, len(union), fed.Graph.NumTriples())
	}
	// 3. No collisions: a facility-local entity (anything but the
	// shared product/discipline vocabulary) is owned by exactly one
	// part. Shared-vocabulary entities may align; local kinds must not.
	owner := make(map[int]string)
	for _, p := range fed.Parts {
		for e, ent := range p.Dataset.Graph.Entities {
			switch ent.Kind {
			case kg.KindDataType, kg.KindDiscipline:
				continue
			}
			m := p.EntMap[e]
			if prev, ok := owner[m]; ok && prev != p.Name {
				t.Fatalf("trial %d: merged entity %d (%s %q) claimed by %s and %s",
					trial, m, fed.Graph.Entities[m].Kind, fed.Graph.Entities[m].Name, prev, p.Name)
			}
			owner[m] = p.Name
		}
	}
	// 4. The user/item embeddings' entity anchors are distinct (the
	// collision guard inside Federate re-checked here from the parts).
	seen := make(map[int]bool)
	for _, e := range fed.UserEnt {
		if seen[e] {
			t.Fatalf("trial %d: two users share entity %d", trial, e)
		}
		seen[e] = true
	}
	for _, e := range fed.ItemEnt {
		if seen[e] {
			t.Fatalf("trial %d: an item shares entity %d", trial, e)
		}
		seen[e] = true
	}
	// 5. The frozen CSR agrees with the merged mutable graph.
	if got, want := fed.CSR().NumEdges(), fed.Graph.NumTriples(); got != want {
		t.Fatalf("trial %d: CSR %d edges, graph %d triples", trial, got, want)
	}
}

// sharedPool is the product vocabulary random schemas draw from.
// Overlapping draws give the federations real cross-facility bridges.
var sharedPool = []facility.DataType{
	{Name: "pool product A", Discipline: "Discipline 1"},
	{Name: "pool product B", Discipline: "Discipline 1"},
	{Name: "pool product C", Discipline: "Discipline 2"},
	{Name: "pool product D", Discipline: "Discipline 2"},
	{Name: "pool product E", Discipline: "Discipline 3"},
	{Name: "pool product F", Discipline: "Discipline 3"},
	{Name: "pool product G", Discipline: "Discipline 4"},
	{Name: "pool product H", Discipline: "Discipline 4"},
}

// randomSchema builds a small valid schema in a random synthesis mode.
// Facility i gets a distinct name; data types are a random contiguous
// window of the shared pool so neighbouring facilities overlap.
func randomSchema(r *rand.Rand, i int) *facility.Schema {
	nDT := 4 + r.Intn(len(sharedPool)-3)
	start := r.Intn(len(sharedPool) - nDT + 1)
	dts := append([]facility.DataType(nil), sharedPool[start:start+nDT]...)
	nRegions := 2 + r.Intn(2)
	regions := make([]string, nRegions)
	for j := range regions {
		regions[j] = fmt.Sprintf("R%d", j)
	}
	s := &facility.Schema{
		Name:      fmt.Sprintf("FAC%d", i),
		Version:   1,
		Regions:   regions,
		DataTypes: dts,
		Affinity: facility.Affinity{
			NumUsers: 8 + r.Intn(12), NumOrgs: 2 + r.Intn(3),
			NumCities: 3, MeanQueries: 4 + r.Intn(6),
			PLocality: 0.3, PModalSite: 0.6, PDataType: 0.5,
			TypeSkew: 0.8, OrgTypeSkew: 0.4, OrgSiteSkew: 0.2,
		},
	}
	if r.Intn(2) == 0 {
		// Grid mode: a small instrument vocabulary over the drawn types.
		nInstr := 4 + r.Intn(3)
		instrs := make([]facility.Instrument, nInstr)
		for j := range instrs {
			k := 1 + r.Intn(2)
			dtIdx := make([]int, 0, k)
			for len(dtIdx) < k {
				cand := r.Intn(nDT)
				dup := false
				for _, d := range dtIdx {
					if d == cand {
						dup = true
					}
				}
				if !dup {
					dtIdx = append(dtIdx, cand)
				}
			}
			instrs[j] = facility.Instrument{
				Name: fmt.Sprintf("instr%d", j), Group: fmt.Sprintf("group%d", j%2),
				DataTypes: dtIdx,
			}
		}
		plan := make([]facility.RegionPlan, nRegions)
		for j := range plan {
			plan[j] = facility.RegionPlan{
				SitePrefix: fmt.Sprintf("S%d", j), Sites: 1 + r.Intn(3),
				Lat: float64(10 * j), Lon: float64(-20 * j),
			}
		}
		s.Instruments = instrs
		s.Synthesis.Grid = &facility.GridRule{
			Plan: plan, Jitter: 0.5,
			CoreClasses: 1, ExtraMin: 1, ExtraJitter: 2,
			MaxTypesPerInstrument: 2,
		}
	} else {
		weights := make([]float64, nRegions)
		for j := range weights {
			weights[j] = 1 + r.Float64()*3
		}
		prodW := make([]float64, nDT)
		for j := range prodW {
			prodW[j] = 0.5 + r.Float64()*5
		}
		s.MDGroups = []string{"net-a", "net-b"}
		s.Synthesis.Stations = &facility.StationRule{
			Stations: 10 + r.Intn(20), Cities: 3 + r.Intn(3),
			RegionWeights: weights, CityZipf: 0.5,
			LatBase: 30, LatRange: 10, LonBase: -120, LonRange: 20,
			ProductWeights: prodW, ExtraMin: 1, ExtraJitter: 2,
		}
	}
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}
