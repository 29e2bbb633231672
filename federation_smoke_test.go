package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/graph"
	"repro/internal/models"
	"repro/internal/serve"
)

// smokeFederation builds a small two-facility federation (downscaled
// built-in OOI + GAGE schemas) shared by the smoke gate and the
// federation benchmarks.
func smokeFederation(tb testing.TB, seed int64) *dataset.Federated {
	tb.Helper()
	ooi := facility.BuiltinOOI()
	for i := range ooi.Synthesis.Grid.Plan {
		ooi.Synthesis.Grid.Plan[i].Sites = 1 + i%2
	}
	ooi.Affinity.NumUsers = 40
	ooi.Affinity.NumOrgs = 6
	ooi.Affinity.NumCities = 6
	ooi.Affinity.MeanQueries = 14
	gage := facility.BuiltinGAGE()
	gage.Synthesis.Stations.Stations = 60
	gage.Synthesis.Stations.Cities = 10
	gage.Affinity.NumUsers = 40
	gage.Affinity.NumOrgs = 6
	gage.Affinity.MeanQueries = 12
	fed, err := dataset.BuildFederated([]*facility.Schema{ooi, gage}, dataset.AllSources(), seed)
	if err != nil {
		tb.Fatalf("BuildFederated: %v", err)
	}
	return fed
}

// TestFederationSmoke is the ci.sh federation gate: a two-facility
// federated CKG built from registry schemas, a short parallel CKAT run
// on the merged graph, a per-facility evaluation breakdown that must
// tile the overall user set, and a facility-filtered serving round
// trip — all clean under -race.
func TestFederationSmoke(t *testing.T) {
	fed := smokeFederation(t, 7)

	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 16
	cfg.Epochs = 2
	cfg.Workers = 4
	m := core.NewDefault()
	if err := m.Train(context.Background(), fed.Dataset, cfg); err != nil {
		t.Fatalf("Train: %v", err)
	}

	overall, err := eval.EvaluateCtx(context.Background(), fed.Dataset, m, 20, 4)
	if err != nil {
		t.Fatalf("EvaluateCtx: %v", err)
	}
	users := 0
	for p := range fed.Parts {
		lo, hi := fed.UserRange(p)
		pm, err := eval.EvaluateUsersCtx(context.Background(), fed.Dataset, m, 20, 4, lo, hi)
		if err != nil {
			t.Fatalf("%s: EvaluateUsersCtx: %v", fed.Parts[p].Name, err)
		}
		if pm.Users == 0 {
			t.Fatalf("%s: evaluated zero users", fed.Parts[p].Name)
		}
		users += pm.Users
		t.Logf("%s recall@20=%.4f ndcg@20=%.4f (%d users)",
			fed.Parts[p].Name, pm.Recall, pm.NDCG, pm.Users)
	}
	if users != overall.Users {
		t.Fatalf("per-facility breakdown covers %d users, overall %d", users, overall.Users)
	}

	// Serving round trip with the facility filter on the merged snapshot.
	s := serve.New(fed.Dataset, m, serve.WithFederation(fed))
	for p := range fed.Parts {
		name := fed.Parts[p].Name
		userLo, _ := fed.UserRange(p)
		itemLo, itemHi := fed.ItemRange(p)
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/v1/recommend?user=%d&k=5&facility=%s", userLo, name), nil)
		rr := httptest.NewRecorder()
		s.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: /v1/recommend status %d: %s", name, rr.Code, rr.Body.String())
		}
		var resp struct {
			Facility        string `json:"facility"`
			Recommendations []struct {
				Item int `json:"item"`
			} `json:"recommendations"`
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if resp.Facility != name || len(resp.Recommendations) == 0 {
			t.Fatalf("%s: filtered response %+v", name, resp)
		}
		for _, rec := range resp.Recommendations {
			if rec.Item < itemLo || rec.Item >= itemHi {
				t.Fatalf("%s: item %d outside window [%d, %d)", name, rec.Item, itemLo, itemHi)
			}
		}
	}
}

// BenchmarkFederatedFreeze measures the CSR freeze of the merged
// two-facility CKG — the boot-path cost a federated snapshot adds over
// a single facility's graph.
func BenchmarkFederatedFreeze(b *testing.B) {
	fed := smokeFederation(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := graph.Freeze(fed.Graph)
		b.ReportMetric(float64(c.NumEdges()), "edges")
	}
}

// BenchmarkFederatedEpoch measures one CKAT training epoch on the
// merged federated graph.
func BenchmarkFederatedEpoch(b *testing.B) {
	fed := smokeFederation(b, 7)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 16
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := core.NewDefault()
		if err := m.Train(context.Background(), fed.Dataset, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSoloEpochs measures one CKAT epoch on each member facility
// trained alone — the per-facility baseline the federated epoch cost
// is compared against (federated ≈ sum of solo plus the bridge edges).
func BenchmarkSoloEpochs(b *testing.B) {
	fed := smokeFederation(b, 7)
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 16
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := range fed.Parts {
			m := core.NewDefault()
			if err := m.Train(context.Background(), fed.Parts[p].Dataset, cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFederatedServeRecommend drives facility-filtered
// /v1/recommend requests against a server over the merged snapshot —
// the serving-latency row of BENCH_federation.json.
func BenchmarkFederatedServeRecommend(b *testing.B) {
	fed := smokeFederation(b, 7)
	m := core.NewDefault()
	cfg := models.DefaultTrainConfig()
	cfg.EmbedDim = 32
	cfg.Epochs = 3
	if err := m.Train(context.Background(), fed.Dataset, cfg); err != nil {
		b.Fatal(err)
	}
	s := serve.New(fed.Dataset, m, serve.WithFederation(fed))
	paths := make([]string, 0, fed.NumUsers)
	for p := range fed.Parts {
		name := fed.Parts[p].Name
		lo, hi := fed.UserRange(p)
		for u := lo; u < hi; u++ {
			paths = append(paths, fmt.Sprintf("/v1/recommend?user=%d&k=10&facility=%s", u, name))
		}
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			req := httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil)
			rr := httptest.NewRecorder()
			s.ServeHTTP(rr, req)
			if rr.Code != http.StatusOK {
				b.Errorf("status %d", rr.Code)
				return
			}
			i++
		}
	})
}
