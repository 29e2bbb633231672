// GAGE discovery scenario: geodesy with station locality.
//
// GAGE users follow the instrument-locality correlation (§VI-F: for
// GAGE, UIG+LOC beats UIG+DKG). This example simulates a geodesist
// monitoring crustal deformation in one state, shows how CKAT's
// recommendations concentrate on nearby GPS/GNSS stations and related
// products (position time series alongside raw RINEX), and contrasts
// the knowledge-source ablation on this user: CKAT trained with
// UIG+LOC vs UIG+DKG.
//
//	go run ./examples/gage_discovery
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/trace"
)

func main() {
	cat := facility.GAGE(7, facility.GAGEConfig{Stations: 600, Cities: 100})
	cfg := trace.DefaultGAGEConfig()
	cfg.NumUsers = 500
	cfg.NumOrgs = 45
	tr := trace.Generate(cat, cfg, 13)

	// Build two datasets over the SAME trace and split, differing only
	// in the knowledge sources (the Table III contrast).
	dLoc := dataset.Build(tr, dataset.Sources{UIG: true, LOC: true}, 13)
	dDkg := dataset.Build(tr, dataset.Sources{UIG: true, DKG: true}, 13)

	user, state := findActiveUser(dLoc)
	if user < 0 {
		fmt.Println("no sufficiently active user")
		return
	}
	fmt.Printf("geodesist: user %d from %s, working on stations in %s\n",
		user, tr.Cities[tr.Users[user].City], cat.Regions[state])

	tc := models.DefaultTrainConfig()
	tc.Epochs = 8
	tc.EmbedDim = 32

	fmt.Println("\ntraining CKAT with UIG+LOC (instrument locality knowledge)...")
	mLoc := core.NewDefault()
	if err := mLoc.Train(context.Background(), dLoc, tc); err != nil {
		log.Fatal(err)
	}
	fmt.Println("training CKAT with UIG+DKG (domain knowledge only)...")
	mDkg := core.NewDefault()
	if err := mDkg.Train(context.Background(), dDkg, tc); err != nil {
		log.Fatal(err)
	}

	rLoc := eval.Evaluate(dLoc, mLoc, 20)
	rDkg := eval.Evaluate(dDkg, mDkg, 20)
	fmt.Printf("\nGAGE knowledge-source contrast (Table III shape: LOC > DKG for GAGE):\n")
	fmt.Printf("  UIG+LOC recall@20=%.4f ndcg@20=%.4f\n", rLoc.Recall, rLoc.NDCG)
	fmt.Printf("  UIG+DKG recall@20=%.4f ndcg@20=%.4f\n", rDkg.Recall, rDkg.NDCG)

	// Station-locality structure of the recommendations.
	scores := make([]float64, dLoc.NumItems)
	mLoc.ScoreItems(user, scores)
	for _, it := range dLoc.TrainByUser[user] {
		scores[it] = -1e18
	}
	top := eval.TopK(scores, 10)
	inTest := map[int]bool{}
	for _, it := range dLoc.TestByUser[user] {
		inTest[it] = true
	}
	fmt.Printf("\nCKAT(UIG+LOC) top-10 stations for the geodesist (* = held-out truth):\n")
	var sameState int
	for rank, it := range top {
		item := cat.Items[it]
		site := cat.Sites[item.Site]
		mark := " "
		if inTest[it] {
			mark = "*"
		}
		if site.Region == state {
			sameState++
		}
		products := cat.DataTypes[item.DataType].Name
		for _, e := range item.ExtraTypes {
			products += ", " + cat.DataTypes[e].Name
		}
		fmt.Printf("%2d %s %-10s %s (%s) — %s\n", rank+1, mark, site.Name,
			cat.Cities[site.City], cat.Regions[site.Region], products)
	}
	fmt.Printf("   → %d/10 recommendations inside the researcher's home state\n", sameState)
}

// findActiveUser picks a user with a solid history and returns their
// modal state.
func findActiveUser(d *dataset.Dataset) (int, int) {
	cat := d.Trace.Facility
	for u := 0; u < d.NumUsers; u++ {
		if len(d.TrainByUser[u]) < 15 || len(d.TestByUser[u]) < 3 {
			continue
		}
		counts := map[int]int{}
		for _, it := range d.TrainByUser[u] {
			counts[cat.Sites[cat.Items[it].Site].Region]++
		}
		best, bestN := -1, -1
		for s, n := range counts {
			if n > bestN {
				best, bestN = s, n
			}
		}
		if bestN*2 >= len(d.TrainByUser[u]) {
			return u, best
		}
	}
	return -1, -1
}
