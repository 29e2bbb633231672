package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"testing"
)

func TestPercentileCountsFailuresAsInf(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 1); got != 5 {
		t.Fatalf("p100 = %v, want 5", got)
	}
	// 100 samples, two failed: the p99 must land on a failure, not on
	// the slowest success as it would if failures were dropped.
	var lat []float64
	for i := 1; i <= 98; i++ {
		lat = append(lat, float64(i))
	}
	lat = append(lat, posInf, posInf)
	if got := percentile(lat, 0.99); !math.IsInf(got, 1) {
		t.Fatalf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := percentile(lat, 0.5); got != 50 {
		t.Fatalf("p50 = %v, want 50", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Fatal("empty percentile should be NaN")
	}
	if xs[0] != 5 {
		t.Fatal("percentile reordered its input")
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []interval{{120, 150}}, 70},
		{"overlapping fan-out counted once", []interval{{110, 160}, {130, 170}}, 40},
		{"disjoint", []interval{{110, 120}, {150, 180}}, 60},
		{"clipped to parent", []interval{{50, 130}, {190, 260}}, 60},
		{"outside parent", []interval{{10, 90}}, 100},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPerKopAndRatio(t *testing.T) {
	if got := perKop(3, 1500); got != 2 {
		t.Fatalf("perKop = %v, want 2", got)
	}
	if perKop(3, 0) != 0 || ratio(1, 0) != 0 {
		t.Fatal("zero base must yield 0")
	}
}

func TestSummarizeSeparatesLagAndConnWait(t *testing.T) {
	recs := []opRec{
		{kind: opRecommend, due: 0, enq: 2e6, pick: 3e6, done: 5e6},
		{kind: opIngest, due: 0, enq: 1e6, pick: 1e6, done: 9e6},
		{kind: opSimilar, due: 0, enq: 0, pick: 0, done: 1e6, err: "transport"},
	}
	s := summarize("x", 1, recs)
	if s.sent != 3 || s.succeeded != 2 || s.failed != 1 {
		t.Fatalf("counts = %+v", s)
	}
	if s.lagP99 != 2 || s.waitP99 != 1 {
		t.Fatalf("lag p99 = %v, conn wait p99 = %v; want 2 and 1", s.lagP99, s.waitP99)
	}
	// Reads only: the recommend (5 ms from due) and the failed similar.
	if s.p50 != 5 || !math.IsInf(s.p99, 1) {
		t.Fatalf("read p50/p99 = %v/%v; want 5/+Inf", s.p50, s.p99)
	}
}

func TestSaturationThroughputAndServiceTime(t *testing.T) {
	// Four ops due at once over 2 s; one failed.
	recs := []opRec{
		{kind: opRecommend, pick: 0, done: 5e8},
		{kind: opRecommend, pick: 5e8, done: 1e9},
		{kind: opSimilar, pick: 1e9, done: 2e9},
		{kind: opSimilar, pick: 1e9, done: 1.5e9, err: "transport"},
	}
	rps, p99 := saturation(recs)
	if rps != 1.5 {
		t.Fatalf("throughput = %v, want 3 completed / 2 s", rps)
	}
	if !math.IsInf(p99, 1) {
		t.Fatalf("service p99 = %v, want +Inf with a failed op", p99)
	}
	if rps, _ := saturation(recs[:2]); rps != 2 {
		t.Fatalf("throughput = %v, want 2", rps)
	}
}

func TestUsedRoundsKeepsValidOrLeastLagged(t *testing.T) {
	mk := func(lags ...float64) []round {
		rs := make([]round, len(lags))
		for i, l := range lags {
			rs[i] = round{lagP99: l, satRPS: float64(i)}
		}
		return rs
	}
	ids := func(rs []round) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.satRPS)
		}
		return out
	}
	use, valid := usedRounds(mk(1, 5, 1.5, 2, 9), 2)
	if valid != 3 || len(use) != 3 || ids(use)[0] != 0 || ids(use)[1] != 2 || ids(use)[2] != 3 {
		t.Fatalf("valid rounds: got %v (valid %d), want rounds 0, 2, 3", ids(use), valid)
	}
	use, valid = usedRounds(mk(7, 1, 9, 4, 3), 2)
	if valid != 1 || len(use) != minRounds || ids(use)[0] != 1 || ids(use)[1] != 4 || ids(use)[2] != 3 {
		t.Fatalf("too few valid: got %v (valid %d), want the least lagged 1, 4, 3", ids(use), valid)
	}
	use, valid = usedRounds(mk(9, 8), 2)
	if valid != 0 || len(use) != 2 {
		t.Fatalf("fewer rounds than minRounds: got %v (valid %d), want both", ids(use), valid)
	}
}

func TestAnalyzeSpans(t *testing.T) {
	spans := []span{
		// Routed batch: client 0..1000, router 100..900, two backend legs.
		{trace: 1, layer: "client", name: "batch", iv: interval{0, 1000}},
		{trace: 1, layer: "router", name: "/v1/recommend:batch", iv: interval{100, 900}},
		{trace: 1, layer: "serve", name: "/v1/recommend:batch", iv: interval{200, 500}},
		{trace: 1, layer: "serve", name: "/v1/recommend:batch", iv: interval{300, 600}},
		// Direct call: client 0..500, serve 100..400.
		{trace: 2, layer: "client", name: "recommend", iv: interval{0, 500}},
		{trace: 2, layer: "serve", name: "/v1/recommend", iv: interval{100, 400}},
	}
	st := analyzeSpans(spans)
	if len(st.routerSelf) != 1 || st.routerSelf[0] != nsToUS(400) {
		t.Fatalf("router self = %v, want [0.4]", st.routerSelf)
	}
	sort.Float64s(st.overheadUS)
	if len(st.overheadUS) != 2 || st.overheadUS[0] != nsToUS(200) || st.overheadUS[1] != nsToUS(200) {
		t.Fatalf("client overhead = %v, want [0.2 0.2]", st.overheadUS)
	}
	if st.serveBusyNS != 900 {
		t.Fatalf("serve busy = %d, want 900", st.serveBusyNS)
	}
}

func TestTraceIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{1, 0xdeadbeefcafe0123, math.MaxUint64} {
		s := formatTraceID(id)
		if len(s) != 16 || parseTraceID(s) != id {
			t.Fatalf("%d -> %q -> %d", id, s, parseTraceID(s))
		}
	}
	if parseTraceID("xyz") != 0 {
		t.Fatal("malformed trace ID must parse as 0")
	}
}

func TestDialAndAcceptCounting(t *testing.T) {
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("{}"))
	}))
	ln := &countingListener{Listener: srv.Listener}
	srv.Listener = ln
	srv.Start()
	defer srv.Close()
	cl := newCaller(srv.URL, 2, 10, nil)
	defer cl.close()
	for i := 0; i < 20; i++ {
		resp, err := cl.hc.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Sequential keep-alive requests reuse one connection.
	if d, a := cl.dials.Load(), ln.accepts.Load(); d != 1 || a != 1 {
		t.Fatalf("dials = %d, accepts = %d; want 1 and 1", d, a)
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	b := &bench{seed: 7}
	a1 := b.schedule("p", 1000, 1e9)
	a2 := b.schedule("p", 1000, 1e9)
	if len(a1) != len(a2) || len(a1) < 850 || len(a1) > 1150 {
		t.Fatalf("schedule sizes %d/%d, want equal and near 1000", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] || a1[i] >= 1e9 || (i > 0 && a1[i] < a1[i-1]) {
			t.Fatalf("schedule not reproducible, bounded and sorted at %d", i)
		}
	}
}

// TestBenchmarkJSONMatchesSpec keeps the metric lists of BENCHMARK.json
// and spec.json in step with what the program prints.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(spec.Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.json", len(bj.Workloads), len(spec.Workloads))
	}
	for _, w := range bj.Workloads {
		if spec.Workloads[w.Name] == nil {
			t.Errorf("workload %s missing from spec.json", w.Name)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end lists %d metrics, the program prints %d", len(bj.EndToEnd), len(endToEnd))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %s, program prints %s", i, m.Name, endToEnd[i])
		}
	}
	e2e := map[string]bool{"p99_ms": true, "ingest_p50_ms": true, "ingest_p99_ms": true}
	for _, n := range endToEnd {
		e2e[n] = true
	}
	for _, l := range spec.Layers {
		for _, m := range l.Moves {
			if !e2e[m] {
				t.Errorf("layer %s moves unknown end-to-end metric %s", l.Name, m)
			}
		}
		for _, w := range append(append([]string(nil), l.On...), l.FlatOn...) {
			if spec.Workloads[w] == nil {
				t.Errorf("layer %s names unknown workload %s", l.Name, w)
			}
		}
	}
	if len(bj.PerLayer) != len(spec.Layers) {
		t.Fatalf("per_layer lists %d metrics, spec.json %d", len(bj.PerLayer), len(spec.Layers))
	}
	for i, m := range bj.PerLayer {
		l := spec.Layers[i]
		if m.Name != l.Name || m.Unit != l.Unit || m.Better != l.Better {
			t.Errorf("per_layer[%d] = %+v, spec.json has %s/%s/%s", i, m, l.Name, l.Unit, l.Better)
		}
	}
}

// TestRecordedFingerprintsReproduce rebuilds one recorded fixture and
// stream: a change to the trace generator, the dataset split, training
// or the stream generator that moves the benchmark's inputs fails here
// as well as in every run of a recorded seed.
func TestRecordedFingerprintsReproduce(t *testing.T) {
	want, ok := recordedFingerprint("routed", 1)
	if !ok {
		t.Skip("no fingerprints recorded for this GOARCH")
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{spec: spec, w: spec.Workloads["routed"], name: "routed", seed: 1}
	if b.fx, err = buildFixture(context.Background(), b.w, b.seed); err != nil {
		t.Fatal(err)
	}
	stream, model := b.prepare()
	if formatFP(stream) != want.Stream || formatFP(model) != want.Model || len(b.problems) != 0 {
		t.Fatalf("stream %s model %s, recorded %+v; problems %v", formatFP(stream), formatFP(model), want, b.problems)
	}
	// Seed 2's inputs checked against seed 1's record must fail both
	// fingerprints.
	b.problems = nil
	if b.fx, err = buildFixture(context.Background(), b.w, 2); err != nil {
		t.Fatal(err)
	}
	b.prepare()
	if len(b.problems) != 2 {
		t.Fatalf("mismatched inputs raised %d problems, want 2: %v", len(b.problems), b.problems)
	}
}
