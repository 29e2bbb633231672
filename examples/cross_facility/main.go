// Cross-facility CKG consolidation.
//
// §IV notes that "using entity alignment, KGs from multiple facilities
// can be consolidated... potentially enabling recommendations across
// multiple facilities", a direction the paper leaves unexplored. This
// example demonstrates the mechanism: it builds the OOI and GAGE CKGs,
// merges them with entity alignment (shared disciplines, data types,
// and cities align automatically by kind+name), reports the combined
// statistics, and shows a knowledge path that crosses from an OOI data
// object to a GAGE data object through shared entities — the
// connectivity a cross-facility recommender would exploit.
//
//	go run ./examples/cross_facility
package main

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/graph"
	"repro/internal/kg"
	"repro/internal/trace"
)

func main() {
	ooiTr := trace.Generate(facility.OOI(7), smallOOI(), 7)
	gageTr := trace.Generate(facility.GAGE(7, facility.GAGEConfig{Stations: 400, Cities: 60}),
		smallGAGE(), 7)
	dOOI := dataset.Build(ooiTr, dataset.AllSources(), 7)
	dGAGE := dataset.Build(gageTr, dataset.AllSources(), 7)

	fmt.Printf("OOI  CKG: %v\n", dOOI.Stats())
	fmt.Printf("GAGE CKG: %v\n", dGAGE.Stats())

	// Consolidate via entity alignment (§IV).
	combined := kg.NewGraph()
	combined.Merge(dOOI.Graph)
	before := combined.NumEntities()
	combined.Merge(dGAGE.Graph)
	merged := before + dGAGE.Graph.NumEntities() - combined.NumEntities()
	fmt.Printf("\ncombined CKG: %v\n", combined.ComputeStats())
	fmt.Printf("entity alignment merged %d shared entities across facilities\n", merged)

	// Bridge the facilities explicitly the way a workflow integrator
	// would: both facilities observe seafloor/crustal deformation, so
	// link their geodesy-adjacent disciplines.
	ooiGeo, ok1 := combined.Entity(kg.KindDiscipline, "Geological")
	gageGeo, ok2 := combined.Entity(kg.KindDiscipline, "Geodesy Products")
	if ok1 && ok2 {
		rel := combined.AddRelation("relatedDiscipline", "relatedDisciplineOf")
		combined.AddTriple(ooiGeo, rel, gageGeo)
		fmt.Println("added cross-facility bridge: Geological <-> Geodesy Products")
	}

	// Find a cross-facility knowledge path: OOI bottom-pressure object
	// → ... → GAGE position time series object (the earthquake
	// early-warning integration the paper's introduction motivates).
	src := findItemByType(combined, dOOI, "bottom pressure")
	dst := findItemByType(combined, dGAGE, "position time series")
	if src < 0 || dst < 0 {
		fmt.Println("could not locate bridge endpoints")
		return
	}
	paths := graph.Freeze(combined).FindPaths(src, dst, 5, 3)
	fmt.Printf("\ncross-facility connectivity (%s -> %s):\n",
		combined.Entities[src].Name, combined.Entities[dst].Name)
	if len(paths) == 0 {
		fmt.Println("  no path within 5 hops")
		return
	}
	for _, p := range paths {
		fmt.Println("  " + combined.FormatSteps(p))
	}
	fmt.Println("\nsuch paths are exactly the high-order connectivity a future",
		"\ncross-facility CKAT would propagate over (§IV).")
}

func smallOOI() trace.Config {
	c := trace.DefaultOOIConfig()
	c.NumUsers = 80
	c.NumOrgs = 10
	return c
}

func smallGAGE() trace.Config {
	c := trace.DefaultGAGEConfig()
	c.NumUsers = 150
	c.NumOrgs = 20
	return c
}

// findItemByType locates (in the combined graph) an item entity of the
// source dataset whose primary data type matches name.
func findItemByType(combined *kg.Graph, d *dataset.Dataset, typeName string) int {
	cat := d.Trace.Facility
	for i := range cat.Items {
		if cat.DataTypes[cat.Items[i].DataType].Name == typeName {
			if id, ok := combined.Entity(kg.KindItem, cat.Items[i].Name); ok {
				return id
			}
		}
	}
	return -1
}
