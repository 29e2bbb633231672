// OOI discovery scenario: an oceanography workflow.
//
// The paper's motivating §III example: in oceanography, seawater
// conductivity, temperature, and depth (CTD) are used to derive
// salinity and density; users querying one of these tend to need the
// others, from the same region. This example simulates a researcher
// working on the Coastal Pioneer array whose history covers CTD data,
// trains CKAT and the collaborative-filtering baseline BPRMF, and
// compares what each recommends — showing how knowledge associations
// (data-domain model + instrument locality) shape CKAT's suggestions
// and improve held-out hit quality for CTD-style workflows.
//
//	go run ./examples/ooi_discovery
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
	"repro/internal/models/bprmf"
	"repro/internal/trace"
)

func main() {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 150
	cfg.NumOrgs = 14
	tr := trace.Generate(cat, cfg, 11)
	d := dataset.Build(tr, dataset.AllSources(), 11)

	// Find a user whose training history is CTD-heavy: the paper's
	// archetypal oceanography workflow.
	user, site := findCTDUser(d)
	if user < 0 {
		fmt.Println("no CTD-focused user in this trace")
		return
	}
	fmt.Printf("researcher: user %d, org %s, works mostly at site %s\n",
		user, tr.Orgs[tr.Users[user].Org].Name, cat.Sites[site].Name)
	fmt.Println("\ntraining history (CTD workflow):")
	for i, it := range d.TrainByUser[user] {
		if i == 8 {
			fmt.Printf("  ... and %d more\n", len(d.TrainByUser[user])-8)
			break
		}
		item := cat.Items[it]
		fmt.Printf("  %-42s %s\n", item.Name, cat.DataTypes[item.DataType].Discipline)
	}

	tc := models.DefaultTrainConfig()
	tc.Epochs = 10
	tc.EmbedDim = 32
	fmt.Println("\ntraining CKAT and BPRMF...")
	ckat := core.NewDefault()
	if err := ckat.Train(context.Background(), d, tc); err != nil {
		log.Fatal(err)
	}
	mf := bprmf.New()
	if err := mf.Train(context.Background(), d, tc); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\noverall: CKAT recall@20=%.4f | BPRMF recall@20=%.4f\n",
		eval.Evaluate(d, ckat, 20).Recall, eval.Evaluate(d, mf, 20).Recall)

	show := func(name string, m interface {
		ScoreItems(int, []float64)
	}) {
		scores := make([]float64, d.NumItems)
		m.ScoreItems(user, scores)
		for _, it := range d.TrainByUser[user] {
			scores[it] = -1e18
		}
		inTest := map[int]bool{}
		for _, it := range d.TestByUser[user] {
			inTest[it] = true
		}
		top := eval.TopK(scores, 10)
		var sameSite, sameDisc, hits int
		fmt.Printf("\n%s top-10 for the CTD researcher (* = held-out truth):\n", name)
		for rank, it := range top {
			item := cat.Items[it]
			mark := " "
			if inTest[it] {
				mark = "*"
				hits++
			}
			if item.Site == site {
				sameSite++
			}
			if cat.DataTypes[item.DataType].Discipline == "Physical" {
				sameDisc++
			}
			fmt.Printf("%2d %s %-42s %s / %s\n", rank+1, mark, item.Name,
				cat.Sites[item.Site].Name, cat.DataTypes[item.DataType].Discipline)
		}
		fmt.Printf("   → %d/10 at the home site, %d/10 in Physical oceanography, %d held-out hits\n",
			sameSite, sameDisc, hits)
	}
	show("CKAT", ckat)
	show("BPRMF", mf)
}

// findCTDUser returns a user whose training queries are dominated by
// the Physical discipline plus that user's modal site.
func findCTDUser(d *dataset.Dataset) (int, int) {
	cat := d.Trace.Facility
	bestUser, bestSite, bestFrac := -1, -1, 0.0
	for u := 0; u < d.NumUsers; u++ {
		items := d.TrainByUser[u]
		if len(items) < 10 || len(d.TestByUser[u]) < 2 {
			continue
		}
		var phys int
		siteCount := map[int]int{}
		for _, it := range items {
			if cat.DataTypes[cat.Items[it].DataType].Discipline == "Physical" {
				phys++
			}
			siteCount[cat.Items[it].Site]++
		}
		frac := float64(phys) / float64(len(items))
		if frac > bestFrac {
			bestFrac = frac
			bestUser = u
			best, bestN := -1, -1
			for s, n := range siteCount {
				if n > bestN || (n == bestN && s < best) {
					best, bestN = s, n
				}
			}
			bestSite = best
		}
	}
	return bestUser, bestSite
}
