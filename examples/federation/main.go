// Multi-facility federation with a third-party JSON facility schema.
//
// The built-in OOI and GAGE facilities ship as declarative schemas in
// the registry (facility.DefaultRegistry); any other facility can join
// a federation by publishing the same kind of schema as JSON. This
// example loads seisnet.json — a fictional regional seismic network
// whose product vocabulary deliberately overlaps GAGE's (RINEX
// observation, position time series, borehole seismic waveform) —
// registers it next to the built-ins, federates all three facilities
// into one CKG, and shows the two things the merge buys:
//
//  1. cross-facility connectivity: shared data-type/discipline
//     entities form a bridge, so knowledge paths hop from a SEISNET
//     data bundle to a GAGE data bundle;
//
//  2. cross-facility discovery: one CKAT trained on the merged CKG
//     ranks every facility's holdings for every user, and its
//     per-facility evaluation breakdown tiles the overall metric.
//
// Run it from the repo root:
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/models"
)

func main() {
	// 1. Load and validate the third-party schema. LoadSchema is
	// strict: unknown fields, trailing data, dangling cross-references,
	// and non-terminating synthesis rules are all rejected up front.
	f, err := os.Open(schemaPath())
	if err != nil {
		fatal("open schema: %v", err)
	}
	seisnet, err := facility.LoadSchema(f)
	f.Close()
	if err != nil {
		fatal("load schema: %v", err)
	}

	// 2. Register it next to the built-ins. Name + version is the
	// catalog identity; re-registering requires a higher version.
	reg := facility.DefaultRegistry()
	if err := reg.Register(seisnet); err != nil {
		fatal("register: %v", err)
	}
	fmt.Printf("registry: %v\n", reg.Names())

	// 3. Federate downscaled built-ins with the newcomer. Everything
	// about each facility — catalog synthesis and trace calibration —
	// is data on its schema, so resizing is plain field assignment.
	ooi, _ := reg.Get("OOI")
	for i := range ooi.Synthesis.Grid.Plan {
		ooi.Synthesis.Grid.Plan[i].Sites = 1 + i%2
	}
	ooi.Affinity.NumUsers, ooi.Affinity.NumOrgs, ooi.Affinity.NumCities = 50, 8, 8
	gage, _ := reg.Get("GAGE")
	gage.Synthesis.Stations.Stations, gage.Synthesis.Stations.Cities = 80, 12
	gage.Affinity.NumUsers, gage.Affinity.NumOrgs = 50, 8

	fed, err := dataset.BuildFederated(
		[]*facility.Schema{ooi, gage, seisnet}, dataset.AllSources(), 7)
	if err != nil {
		fatal("federate: %v", err)
	}
	fmt.Printf("\nfederated CKG %s: %d entities, %d triples\n",
		fed.Name, fed.Graph.NumEntities(), fed.Graph.NumTriples())
	for p := range fed.Parts {
		ulo, uhi := fed.UserRange(p)
		ilo, ihi := fed.ItemRange(p)
		fmt.Printf("  %-7s users [%3d,%3d)  items [%3d,%3d)\n",
			fed.Parts[p].Name, ulo, uhi, ilo, ihi)
	}

	// 4. The bridge: facility-local entities are namespaced
	// ("SEISNET/SN003-data") and can never collide, while data types
	// and disciplines keep their global names and align across
	// facilities — so a path can leave SEISNET through a shared
	// product and arrive at GAGE.
	src := itemEntityByType(fed, fed.PartByName("SEISNET"), "broadband seismogram")
	dst := itemEntityByType(fed, fed.PartByName("GAGE"), "position time series")
	if src >= 0 && dst >= 0 {
		fmt.Printf("\ncross-facility connectivity (%s -> %s):\n",
			fed.Graph.Entities[src].Name, fed.Graph.Entities[dst].Name)
		for _, p := range fed.CSR().FindPaths(src, dst, 5, 3) {
			fmt.Println("  " + fed.Graph.FormatSteps(p))
		}
	}

	// 5. One CKAT over the merged graph; evaluate per facility.
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim, cfg.Epochs, cfg.Workers = 16, 3, 4
	m := core.NewDefault()
	if err := m.Train(context.Background(), fed.Dataset, cfg); err != nil {
		fatal("train: %v", err)
	}
	overall, err := eval.EvaluateCtx(context.Background(), fed.Dataset, m, 20, 4)
	if err != nil {
		fatal("evaluate: %v", err)
	}
	fmt.Printf("\nfederated CKAT  recall@20=%.4f ndcg@20=%.4f (%d users)\n",
		overall.Recall, overall.NDCG, overall.Users)
	for p := range fed.Parts {
		lo, hi := fed.UserRange(p)
		pm, err := eval.EvaluateUsersCtx(context.Background(), fed.Dataset, m, 20, 4, lo, hi)
		if err != nil {
			fatal("evaluate %s: %v", fed.Parts[p].Name, err)
		}
		fmt.Printf("  %-7s recall@20=%.4f ndcg@20=%.4f (%d users)\n",
			fed.Parts[p].Name, pm.Recall, pm.NDCG, pm.Users)
	}

	// 6. Cross-facility discovery for one SEISNET user: rank the whole
	// federation and flag recommendations owned by other facilities —
	// exactly what a solo-trained SEISNET model could never surface.
	pi := fed.PartByName("SEISNET")
	userLo, _ := fed.UserRange(pi)
	itemLo, itemHi := fed.ItemRange(pi)
	scores := eval.ScoreInto(m, userLo, make([]float64, fed.NumItems))
	eval.MaskTrain(fed.Dataset, userLo, scores)
	fmt.Printf("\ntop-10 for SEISNET user %d across the federation:\n", userLo)
	for _, it := range eval.TopK(scores, 10) {
		tag := ""
		if it < itemLo || it >= itemHi {
			tag = fmt.Sprintf("   <- cross-facility (%s)", fed.Parts[fed.PartOfItem(it)].Name)
		}
		fmt.Printf("  %s%s\n", fed.Graph.Entities[fed.ItemEnt[it]].Name, tag)
	}
}

// itemEntityByType returns the merged-graph entity ID of some item of
// part pi whose primary product is typeName, or -1. EntMap is the
// part-local -> merged entity translation recorded by the federation.
func itemEntityByType(fed *dataset.Federated, pi int, typeName string) int {
	if pi < 0 {
		return -1
	}
	part := &fed.Parts[pi]
	cat := part.Dataset.Trace.Facility
	for i := range cat.Items {
		if cat.DataTypes[cat.Items[i].DataType].Name == typeName {
			return part.EntMap[part.Dataset.ItemEnt[i]]
		}
	}
	return -1
}

// schemaPath resolves seisnet.json whether the example runs from the
// repo root (go run ./examples/federation) or from this directory.
func schemaPath() string {
	for _, p := range []string{"examples/federation/seisnet.json", "seisnet.json"} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return "seisnet.json"
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
