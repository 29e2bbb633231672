package loadgen

import (
	"bytes"
	"context"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
)

// selfModelOnce trains the shared tiny model once per test binary.
var selfModelOnce = sync.OnceValues(func() (*SelfModel, error) {
	return TrainSelfModel(11, 50, 2)
})

func selfModel(t *testing.T) *SelfModel {
	t.Helper()
	sm, err := selfModelOnce()
	if err != nil {
		t.Fatalf("self model: %v", err)
	}
	return sm
}

func TestParseMix(t *testing.T) {
	m, err := ParseMix("recommend=3,similar=1")
	if err != nil {
		t.Fatal(err)
	}
	if m[OpRecommend] != 3 || m[OpSimilar] != 1 || m[OpBatch] != 0 {
		t.Fatalf("parsed mix %v", m)
	}
	if m.String() != "recommend=3,similar=1" {
		t.Fatalf("round trip %q", m.String())
	}
	for _, bad := range []string{"", "frobnicate=1", "recommend", "recommend=-1", "recommend=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) accepted", bad)
		}
	}
}

// The workload stream is deterministic in (trace, mix, seed) and stays
// inside the trace's entity space.
func TestWorkloadDeterministicAndBounded(t *testing.T) {
	sm := TraceOnly(7, 40)
	mix := DefaultMix()
	w1, err := BuildWorkload(sm.Trace, mix, 500, 4, 3, sm.WarmItems())
	if err != nil {
		t.Fatal(err)
	}
	w2, _ := BuildWorkload(sm.Trace, mix, 500, 4, 3, sm.WarmItems())
	if len(w1.Ops) != 500 || len(w2.Ops) != 500 {
		t.Fatalf("op counts %d, %d", len(w1.Ops), len(w2.Ops))
	}
	counts := map[OpKind]int{}
	for i, op := range w1.Ops {
		o2 := w2.Ops[i]
		if op.Kind != o2.Kind || op.User != o2.User || op.Item != o2.Item {
			t.Fatalf("op %d diverged: %+v vs %+v", i, op, o2)
		}
		counts[op.Kind]++
		if op.User < 0 || op.User >= w1.Users || op.Item < 0 || op.Item >= w1.Items {
			t.Fatalf("op %d out of entity range: %+v", i, op)
		}
		if op.Kind == OpBatch && (len(op.Users) < 2 || len(op.Users) > 4) {
			t.Fatalf("batch op has %d users, want 2..4", len(op.Users))
		}
	}
	// Every non-zero-weight kind appears; ingest (weight 0) never does.
	for k := OpKind(0); k < numOpKinds; k++ {
		if mix[k] > 0 && counts[k] == 0 {
			t.Errorf("kind %s never drawn despite weight %d", k, mix[k])
		}
	}
	if counts[OpIngest] != 0 {
		t.Errorf("ingest drawn with weight 0")
	}
}

func TestSummaryKnee(t *testing.T) {
	slo := SLOSpec{P99MS: 100, MaxShed: 0.01}
	steps := []StepResult{
		{Topology: "a", RateQPS: 100, SLOPass: true},
		{Topology: "a", RateQPS: 200, SLOPass: true},
		{Topology: "a", RateQPS: 400, SLOPass: false, Breach: "client p99"},
		{Topology: "b", RateQPS: 100, SLOPass: true},
	}
	s := NewSummary(DefaultMix(), 10, 1, slo, steps)
	if s.KneeQPS["a"] != 200 || !s.Breached["a"] {
		t.Fatalf("knee[a]=%v breached=%v, want 200/true", s.KneeQPS["a"], s.Breached["a"])
	}
	if s.KneeQPS["b"] != 100 || s.Breached["b"] {
		t.Fatalf("knee[b]=%v breached=%v, want 100/false", s.KneeQPS["b"], s.Breached["b"])
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, steps); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("CSV has %d lines, want header+4", len(lines))
	}
	if got := len(strings.Split(lines[1], ",")); got != len(csvHeader) {
		t.Fatalf("CSV row has %d columns, header has %d", got, len(csvHeader))
	}
}

// TestLoadgenSmoke is the CI gate: a short open-loop step against an
// in-process single-shard server must show ZERO divergence between the
// client's error accounting and the server's own counters — every shed
// the client saw is a shed the server counted, and hard errors are
// zero on both sides — and the /v1/stats SLO block must be present.
func TestLoadgenSmoke(t *testing.T) {
	sm := selfModel(t)
	tp, err := StartTopology("1shard", sm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()

	ctx := context.Background()
	hc := &http.Client{Timeout: 10 * time.Second}
	w, err := BuildWorkload(sm.Trace, DefaultMix(), 256, 4, 11, sm.WarmItems())
	if err != nil {
		t.Fatal(err)
	}
	before, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(tp.Target, client.WithHTTPClient(hc))
	rr := Run(ctx, cl, w, RunConfig{
		Rate: 150, Duration: 1200 * time.Millisecond, K: 5, Seed: 11,
	})
	after, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Delta(before, after)
	if err != nil {
		t.Fatal(err)
	}

	if rr.Offered == 0 || rr.Completed != rr.Offered {
		t.Fatalf("offered %d, completed %d — open loop lost requests", rr.Offered, rr.Completed)
	}
	if rr.Errors != 0 {
		t.Fatalf("client saw %d hard errors against a healthy in-process server", rr.Errors)
	}
	if sd.Err5xx != 0 {
		t.Fatalf("server counted %v 5xx the client did not see", sd.Err5xx)
	}
	if float64(rr.Sheds) != sd.Shed {
		t.Fatalf("shed divergence: client %d vs server %v", rr.Sheds, sd.Shed)
	}
	if sd.Requests < float64(rr.OK) {
		t.Fatalf("server histogram count %v < client OK %d", sd.Requests, rr.OK)
	}
	if rr.OK > 0 {
		if p50, p99 := rr.Percentile(0.50), rr.Percentile(0.99); p50 <= 0 || p99 < p50 {
			t.Fatalf("client percentiles broken: p50=%v p99=%v", p50, p99)
		}
		if sd.P99 <= 0 {
			t.Fatalf("server histogram-derived p99 = %v", sd.P99)
		}
	}

	// The SLO block the capacity harness keys on must be in /v1/stats.
	stats, err := cl.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.SLO) == 0 {
		t.Fatal("/v1/stats has no slo block")
	}
	healthyNames := 0
	for _, slo := range stats.SLO {
		if slo.Healthy {
			healthyNames++
		}
	}
	if healthyNames == 0 {
		t.Fatalf("no healthy SLOs after a clean run: %+v", stats.SLO)
	}
}

// The ingest op commits through the ledger-enabled backend and the
// ack arrives with a chain hash.
func TestLoadgenIngestOp(t *testing.T) {
	sm := selfModel(t)
	tp, err := StartTopology("1shard", sm, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	cl := client.New(tp.Target)
	mix := Mix{}
	mix[OpIngest] = 1
	w, err := BuildWorkload(sm.Trace, mix, 8, 4, 5, sm.WarmItems())
	if err != nil {
		t.Fatal(err)
	}
	rr := Run(context.Background(), cl, w, RunConfig{
		Rate: 50, Duration: 200 * time.Millisecond, K: 5, Seed: 5,
	})
	if rr.Errors != 0 || rr.OK == 0 {
		t.Fatalf("ingest ops failed: %+v", rr)
	}
}

// The router topology serves the full mix and its scrape list reaches
// both the router and the backends.
func TestRouterTopologySweep(t *testing.T) {
	sm := selfModel(t)
	tp, err := StartTopology("router2", sm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	if len(tp.Scrapes) != 3 {
		t.Fatalf("router2 scrape list %v, want router + 2 backends", tp.Scrapes)
	}
	ctx := context.Background()
	hc := &http.Client{Timeout: 10 * time.Second}
	w, err := BuildWorkload(sm.Trace, DefaultMix(), 128, 4, 7, sm.WarmItems())
	if err != nil {
		t.Fatal(err)
	}
	before, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(tp.Target, client.WithHTTPClient(hc))
	rr := Run(ctx, cl, w, RunConfig{
		Rate: 100, Duration: 800 * time.Millisecond, K: 5, Seed: 7,
	})
	after, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Delta(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Errors != 0 {
		t.Fatalf("%d hard errors through the router", rr.Errors)
	}
	// The entry-point histogram is the router's; it must have seen the
	// client's completed ops.
	if sd.Requests < float64(rr.OK) {
		t.Fatalf("router histogram count %v < client OK %d", sd.Requests, rr.OK)
	}
	st := NewStepResult(tp.Name, RunConfig{Rate: 100, Duration: 800 * time.Millisecond}, rr, sd,
		SLOSpec{P99MS: 5000, MaxShed: 0.5})
	if !st.SLOPass {
		t.Fatalf("relaxed SLO breached: %s", st.Breach)
	}
}

// Multi-shard serving is the router's job: a router2 topology boots
// and answers, while "2shard" is rejected with an error naming router2.
func TestShardedTopology(t *testing.T) {
	sm := selfModel(t)
	tp, err := StartTopology("router2", sm, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	cl := client.New(tp.Target)
	if _, err := cl.Recommend(context.Background(), 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := StartTopology("2shard", sm, ""); err == nil || !strings.Contains(err.Error(), "router2") {
		t.Fatalf("2shard topology: err = %v, want a rejection naming router2", err)
	}
	if _, err := StartTopology("bogus", sm, ""); err == nil {
		t.Fatal("bogus topology accepted")
	}
}

// serve.Option passthrough: a tiny inflight cap forces sheds, and the
// client/server shed accounting still agrees exactly.
func TestShedAccountingUnderOverload(t *testing.T) {
	sm := selfModel(t)
	tp, err := StartTopology("1shard", sm, "", serve.WithMaxInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	ctx := context.Background()
	hc := &http.Client{Timeout: 10 * time.Second}
	w, err := BuildWorkload(sm.Trace, DefaultMix(), 256, 4, 13, sm.WarmItems())
	if err != nil {
		t.Fatal(err)
	}
	before, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	cl := client.New(tp.Target, client.WithHTTPClient(hc))
	rr := Run(ctx, cl, w, RunConfig{
		Rate: 400, Duration: 700 * time.Millisecond, K: 5, Seed: 13, MaxInflight: 64,
	})
	after, err := ScrapeAll(ctx, hc, tp.Scrapes)
	if err != nil {
		t.Fatal(err)
	}
	sd, err := Delta(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rr.Sheds) != sd.Shed {
		t.Fatalf("shed divergence under overload: client %d vs server %v", rr.Sheds, sd.Shed)
	}
	if rr.Errors != 0 {
		t.Fatalf("%d hard errors (sheds must surface as typed ErrShed, not errors)", rr.Errors)
	}
}
