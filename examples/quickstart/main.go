// Quickstart: the minimal end-to-end CKAT pipeline.
//
// It generates a small synthetic OOI query trace, assembles the
// collaborative knowledge graph, trains CKAT for a few epochs, prints
// the evaluation metrics and one user's top-10 recommendations, and
// explains a recommendation through the knowledge-graph paths that
// connect the user's history to the recommended data object (the
// high-order connectivity of Fig. 1/2).
//
//	go run ./examples/quickstart
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
	// 1. Simulate a facility and its users.
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 120
	cfg.NumOrgs = 12
	tr := trace.Generate(cat, cfg, 7)
	fmt.Printf("simulated %s: %d users, %d data objects, %d query records\n",
		cat.Name, len(tr.Users), len(cat.Items), len(tr.Records))

	// 2. Build the dataset: 80/20 split + collaborative knowledge graph.
	d := dataset.Build(tr, dataset.AllSources(), 7)
	fmt.Printf("CKG: %v\n", d.Stats())

	// 3. Train CKAT.
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = 10
	tc.EmbedDim = 32
	fmt.Println("training CKAT (10 epochs)...")
	if err := m.Train(context.Background(), d, tc); err != nil {
		log.Fatal(err)
	}

	// 4. Evaluate with the paper's protocol.
	metrics := eval.Evaluate(d, m, 20)
	fmt.Printf("recall@20=%.4f ndcg@20=%.4f over %d users\n",
		metrics.Recall, metrics.NDCG, metrics.Users)

	// 5. Recommend for one user.
	user := 5
	scores := make([]float64, d.NumItems)
	m.ScoreItems(user, scores)
	for _, it := range d.TrainByUser[user] {
		scores[it] = -1e18
	}
	top := eval.TopK(scores, 10)
	fmt.Printf("\ntop-10 data objects for user %d:\n", user)
	for rank, it := range top {
		item := cat.Items[it]
		fmt.Printf("%2d. %-40s (%s, %s)\n", rank+1, item.Name,
			cat.Sites[item.Site].Name, cat.DataTypes[item.DataType].Name)
	}

	// 6. Explain the top recommendation via KG connectivity: find paths
	// from one of the user's training items to the recommended object.
	if len(d.TrainByUser[user]) > 0 {
		src := d.ItemEnt[d.TrainByUser[user][0]]
		dst := d.ItemEnt[top[0]]
		paths := d.CSR().FindPaths(src, dst, 4, 3)
		fmt.Printf("\nwhy %q: knowledge paths from your history item %q:\n",
			cat.Items[top[0]].Name, cat.Items[d.TrainByUser[user][0]].Name)
		for _, p := range paths {
			fmt.Println("  " + d.Graph.FormatSteps(p))
		}
	}
}
