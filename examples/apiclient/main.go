// Example apiclient demonstrates the typed Go client for the /v1
// discovery API: it trains a small CKAT model, serves it on an
// ephemeral port, and then talks to it exclusively through
// internal/serve/client — the same way an external integration would.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/trace"
)

func main() {
	// Train a small model (an actual deployment would load a snapshot).
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 80
	cfg.NumOrgs = 8
	tr := trace.Generate(cat, cfg, 7)
	d := dataset.Build(tr, dataset.AllSources(), 7)
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = 5
	tc.EmbedDim = 16
	fmt.Printf("training CKAT on %s...\n", d.Name)
	if err := m.Train(context.Background(), d, tc); err != nil {
		log.Fatal(err)
	}

	// Serve on an ephemeral port.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: serve.New(d, m)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n\n", base)

	c := client.New(base)
	ctx := context.Background()

	h, err := c.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("health: %s facility=%s users=%d items=%d\n\n",
		h.Status, h.Facility, h.Users, h.Items)

	user := 5
	recs, err := c.Recommend(ctx, user, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top-5 data objects for user %d:\n", user)
	for _, r := range recs {
		fmt.Printf("  %d. %-44s (%s, %s)  score=%.3f\n",
			r.Rank, r.Name, r.Site, r.DataType, r.Score)
	}

	// Explain the top recommendation with CKG paths.
	exp, err := c.Explain(ctx, user, recs[0].Item)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nwhy %q:\n", exp.ItemName)
	if len(exp.Paths) == 0 {
		fmt.Println("  (no short knowledge paths)")
	}
	for _, p := range exp.Paths {
		fmt.Printf("  via %s: %s\n", p.From, p.Path)
	}

	// Items similar to the top recommendation.
	sim, err := c.Similar(ctx, recs[0].Item, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nitems similar to %q:\n", recs[0].Name)
	for _, r := range sim {
		fmt.Printf("  %d. %s\n", r.Rank, r.Name)
	}

	// Batch scoring: many users in one round trip.
	batch, err := c.RecommendBatch(ctx, []int{0, 1, 2, 3}, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nbatch top-2 per user:")
	for _, ur := range batch {
		fmt.Printf("  user %d: %s | %s\n", ur.User,
			ur.Recommendations[0].Name, ur.Recommendations[1].Name)
	}

	// Semantic queries over the embedding space: nearest entities to a
	// data object (ann-accelerated by default) and a vector analogy
	// a - b + c per the paper's knowledge-graph embedding geometry.
	near, err := c.Nearest(ctx, client.Item(recs[0].Item), 3, "any")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnearest entities to %q (mode=%s ef=%d):\n",
		recs[0].Name, near.Ranking.Mode, near.Ranking.EF)
	for _, n := range near.Neighbors {
		fmt.Printf("  %d. %s:%d %s  score=%.3f\n", n.Rank, n.Kind, n.ID, n.Name, n.Score)
	}

	ana, err := c.Analogy(ctx, client.Item(recs[0].Item), client.Item(sim[0].Item), client.User(user), 3, "item")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nanalogy %s - %s + %s:\n", ana.A, ana.B, ana.C)
	for _, n := range ana.Neighbors {
		fmt.Printf("  %d. %s  score=%.3f\n", n.Rank, n.Name, n.Score)
	}

	// A client pinned to exact scoring: identical endpoints, mode knob
	// stamped on every ranking request.
	exact := client.New(base, client.WithMode("exact"))
	if _, err := exact.Recommend(ctx, user, 5); err != nil {
		log.Fatal(err)
	}

	// Typed error handling: the envelope decodes into *client.APIError.
	if _, err := c.Recommend(ctx, 10_000_000, 5); err != nil {
		fmt.Printf("\nexpected API error: %v\n", err)
	}

	// Serving metrics accumulated by this session.
	st, err := c.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nserving stats: inflight=%d cache hit-rate=%.0f%% (%d hits / %d misses)\n",
		st.Inflight, 100*st.Cache.HitRate, st.Cache.Hits, st.Cache.Misses)
	fmt.Printf("  ann: enabled=%v build=%.1fms levels=%d ef_search=%d\n",
		st.ANN.Enabled, st.ANN.BuildMS, st.ANN.Levels, st.ANN.EfSearch)
	for path, ep := range map[string]client.EndpointStats{
		"/v1/recommend": st.Endpoints["/v1/recommend"],
		"/v1/similar":   st.Endpoints["/v1/similar"],
	} {
		fmt.Printf("  %-14s count=%d errors=%d p50=%.2fms p99=%.2fms\n",
			path, ep.Count, ep.Errors, ep.P50ms, ep.P99ms)
	}
}
