package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/models"
	"repro/internal/models/bprmf"
	"repro/internal/serve"
	"repro/internal/trace"
)

// TestEndToEndPipeline exercises the full system exactly as a
// downstream deployment would: simulate a facility, build the CKG,
// train CKAT, evaluate, persist a snapshot, reload it, and serve
// recommendations over HTTP.
func TestEndToEndPipeline(t *testing.T) {
	// 1. Facility + trace.
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 70
	cfg.NumOrgs = 8
	cfg.MeanQueries = 20
	tr := trace.Generate(cat, cfg, 5)

	// 2. Dataset + CKG.
	d := dataset.Build(tr, dataset.AllSources(), 5)
	if d.Stats().Triples == 0 {
		t.Fatal("empty CKG")
	}

	// 3. Train the paper's model.
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = 5
	tc.EmbedDim = 16
	if err := m.Train(context.Background(), d, tc); err != nil {
		t.Fatal(err)
	}

	// 4. Evaluate: must clearly beat an arbitrary ranking.
	metrics := eval.Evaluate(d, m, 20)
	if metrics.Recall < 0.05 {
		t.Fatalf("end-to-end recall@20 = %v, suspiciously low", metrics.Recall)
	}

	// 5. Persist + reload.
	var buf bytes.Buffer
	if err := m.Snapshot(d.Name).Save(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := core.LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// 6. Serve from the snapshot.
	srv := httptest.NewServer(serve.New(d, snap.Scorer()))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/v1/recommend?user=2&k=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recommend status %d", resp.StatusCode)
	}
	var body struct {
		Recommendations []struct {
			Name string `json:"name"`
			Rank int    `json:"rank"`
		} `json:"recommendations"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Recommendations) != 5 || body.Recommendations[0].Rank != 1 {
		t.Fatalf("bad recommendations: %+v", body.Recommendations)
	}
	for _, r := range body.Recommendations {
		if r.Name == "" {
			t.Fatal("recommendation without a name")
		}
	}
}

// TestCKATBeatsCFBaselineEndToEnd locks in the paper's headline claim
// at test scale: CKAT's knowledge-aware propagation beats pure
// collaborative filtering on the same data.
func TestCKATBeatsCFBaselineEndToEnd(t *testing.T) {
	cat := facility.OOI(7)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = 90
	cfg.NumOrgs = 10
	tr := trace.Generate(cat, cfg, 13)
	d := dataset.Build(tr, dataset.AllSources(), 13)

	tc := models.DefaultTrainConfig()
	tc.Epochs = 8
	tc.EmbedDim = 32

	ckat := core.NewDefault()
	if err := ckat.Train(context.Background(), d, tc); err != nil {
		t.Fatal(err)
	}
	ckatRecall := eval.Evaluate(d, ckat, 20).Recall

	// BPRMF shares the identical training budget.
	bpr := bprmf.New()
	if err := bpr.Train(context.Background(), d, tc); err != nil {
		t.Fatal(err)
	}
	bprRecall := eval.Evaluate(d, bpr, 20).Recall

	if ckatRecall <= bprRecall {
		t.Fatalf("CKAT recall %.4f did not beat BPRMF %.4f (Table II shape)",
			ckatRecall, bprRecall)
	}
	t.Logf("CKAT %.4f vs BPRMF %.4f (+%.1f%%)", ckatRecall, bprRecall,
		100*(ckatRecall-bprRecall)/bprRecall)
}
