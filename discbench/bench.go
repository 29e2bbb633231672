package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/serve/api"
	"repro/internal/shard"
)

// procStart approximates process start for the first set-up's clock.
var procStart = time.Now()

// streamLen is the length of the pre-generated op stream; phases take
// consecutive slices of it, wrapping around.
const streamLen = 1 << 16

const warmupDur = time.Second

// bench is one run of one workload.
type bench struct {
	spec    *Spec
	w       *WorkloadSpec
	name    string
	seed    int64
	seconds float64
	dir     string // per-run working directory inside the checkout

	fx     *fixture
	stream []op
	orc    *oracle
	cursor int
	phases []phaseSummary

	verdict  verdict
	problems []string // failed checks, printed and fatal to "correct"
	notes    []string // printed remarks that do not fail the run
	extra    int      // failures found outside the op records (counter deltas, routed bytes)
	acks     []ack    // acknowledged ingest batches of the consumed windows
}

// phaseSummary is the per-phase tally printed for every phase.
type phaseSummary struct {
	name                      string
	rate                      float64
	sent, succeeded, failed   int
	p50, p99, lagP99, waitP99 float64
	status                    string
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// schedule draws the Poisson due times of one named phase from the
// workload seed.
func (b *bench) schedule(phase string, rate float64, dur time.Duration) []int64 {
	return poissonSchedule(rng.New(b.seed).Split("discbench-"+phase), rate, dur)
}

// phase runs the next slice of the stream on schedule due and records
// its summary.
func (b *bench) phase(ctx context.Context, cl *caller, name string, rate float64, due []int64) []opRec {
	recs := runPhase(ctx, cl, b.stream, b.cursor, due)
	b.cursor = (b.cursor + len(due)) % len(b.stream)
	s := summarize(name, rate, recs)
	b.phases = append(b.phases, s)
	return recs
}

func summarize(name string, rate float64, recs []opRec) phaseSummary {
	s := phaseSummary{name: name, rate: rate, sent: len(recs)}
	var reads, lags, waits []float64
	for i := range recs {
		r := &recs[i]
		if r.failed() {
			s.failed++
		} else {
			s.succeeded++
		}
		lags = append(lags, nsToMS(r.enq-r.due))
		waits = append(waits, nsToMS(r.pick-r.enq))
		if r.kind.isRead() {
			reads = append(reads, r.latencyMS())
		}
	}
	s.p50, s.p99 = percentile(reads, 0.5), percentile(reads, 0.99)
	s.lagP99, s.waitP99 = percentile(lags, 0.99), percentile(waits, 0.99)
	return s
}

// setup builds the fixture and boots a topology, timing it from start
// until the entry point has answered its first request.
func (b *bench) setup(ctx context.Context, start time.Time, tag string) (*topology, float64, error) {
	fx, err := buildFixture(ctx, b.w, b.seed)
	if err != nil {
		return nil, 0, err
	}
	tp, err := b.boot(fx, nil, tag)
	if err != nil {
		return nil, 0, err
	}
	b.fx = fx
	return tp, time.Since(start).Seconds(), nil
}

// boot starts a topology over fx and waits for its first answer.
func (b *bench) boot(fx *fixture, rec *recorder, tag string) (*topology, error) {
	dir := filepath.Join(b.dir, tag)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	tp, err := startTopology(fx, b.w, rec, dir)
	if err != nil {
		return nil, err
	}
	hc := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	resp, err := hc.Get(tp.base + "/v1/health")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		tp.close()
		return nil, err
	}
	return tp, nil
}

// prepare derives the op stream and the oracle from the fixture and
// checks the recorded fingerprints.
func (b *bench) prepare() (streamFP, modelFP uint64) {
	b.stream = buildStream(b.fx.d, b.w, streamLen, b.seed)
	b.orc = newOracle(b.fx.d, b.fx.model, b.spec.K, b.spec.RecallGate)
	streamFP, modelFP = streamFingerprint(b.stream), modelFingerprint(b.fx.model)
	if want, ok := recordedFingerprint(b.name, b.seed); ok {
		if got := formatFP(streamFP); got != want.Stream {
			b.fail("op stream fingerprint %s, recorded %s: the trace, dataset or stream generator changed the inputs", got, want.Stream)
		}
		if got := formatFP(modelFP); got != want.Model {
			b.fail("model fingerprint %s, recorded %s: training changed the model", got, want.Model)
		}
	}
	return streamFP, modelFP
}

// counters sums the serve- and router-side counters the run must keep
// at zero (degraded, shed, ann fallback) plus the router retry count.
type counters struct{ degraded, shed, annFallback, retries float64 }

// readCounters scrapes the counters in-process; a scrape that fails to
// parse fails the run, since zero deltas would otherwise pass vacuously.
func (b *bench) readCounters(tp *topology) counters {
	var c counters
	scrape := func(reg *obs.Registry) []obs.PromSample {
		var buf bytes.Buffer
		err := reg.WriteProm(&buf)
		var s []obs.PromSample
		if err == nil {
			s, err = obs.ParseProm(&buf)
		}
		if err != nil {
			b.fail("scrape counters: %v", err)
		}
		return s
	}
	for _, s := range tp.servers {
		sm := scrape(s.Registry())
		c.degraded += obs.CounterValue(sm, "serve_degraded_requests_total", nil)
		c.shed += obs.CounterValue(sm, "serve_shed_requests_total", nil)
		c.annFallback += obs.CounterValue(sm, "ann_fallback_total", nil)
	}
	if tp.router != nil {
		c.retries = obs.CounterValue(scrape(tp.router.Registry()), "router_backend_retries_total", nil)
	}
	return c
}

// checkCounters fails the run on any degraded, shed or ann-fallback
// answer since before; each one counts as a failed op.
func (b *bench) checkCounters(tag string, before, after counters) {
	for _, c := range []struct {
		name string
		d    float64
	}{
		{"serve_degraded_requests_total", after.degraded - before.degraded},
		{"serve_shed_requests_total", after.shed - before.shed},
		{"ann_fallback_total", after.annFallback - before.annFallback},
	} {
		if c.d != 0 {
			b.fail("%s: %s grew by %v", tag, c.name, c.d)
			b.extra += int(c.d)
		}
	}
}

// checkANN requires a live HNSW index on every server.
func (b *bench) checkANN(tag string, tp *topology) {
	for i, s := range tp.servers {
		if !s.Dispatcher().ANNStats().Enabled {
			b.fail("%s: server %d has no live ANN index", tag, i)
		}
	}
}

// ack is one acknowledged ingest batch.
type ack struct {
	batch  uint64
	events int
}

// ingestAcks returns the acknowledged ingest batches of recs.
func ingestAcks(recs ...[]opRec) []ack {
	var out []ack
	for _, rs := range recs {
		for i := range rs {
			if rs[i].kind == opIngest && !rs[i].failed() {
				out = append(out, ack{rs[i].res.ack.Batch, rs[i].res.ack.Events})
			}
		}
	}
	return out
}

// checkIngest verifies that acknowledged batches carry contiguous
// indices and that the ledger and the applier hold exactly the
// acknowledged events, so a write path cannot quietly drop events.
func (b *bench) checkIngest(tag string, tp *topology, acks []ack) (acked int) {
	if tp.led == nil {
		return 0
	}
	idx := make([]uint64, 0, len(acks))
	for _, a := range acks {
		idx = append(idx, a.batch)
		acked += a.events
	}
	sort.Slice(idx, func(i, j int) bool { return idx[i] < idx[j] })
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1]+1 {
			b.fail("%s: ingest ack batch indices not contiguous (%d then %d)", tag, idx[i-1], idx[i])
			break
		}
	}
	ls, as := tp.led.Stats(), tp.app.Stats()
	if ls.Batches != uint64(len(idx)) {
		b.fail("%s: ledger holds %d batches, %d acknowledged", tag, ls.Batches, len(idx))
	}
	if ls.Events != uint64(acked) || as.Events != uint64(acked) {
		b.fail("%s: %d events acknowledged, ledger holds %d, applier applied %d", tag, acked, ls.Events, as.Events)
	}
	return acked
}

// checkRouted compares a sample of routed answers byte for byte with
// the owning backend's answer to the same request (batches with backend
// 0 answering the whole batch). A mismatch counts as a failed op.
func (b *bench) checkRouted(tp *topology, recs []opRec) int {
	if tp.router == nil {
		return 0
	}
	hc := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	get := func(method, url string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, url, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return io.ReadAll(resp.Body)
	}
	k := strconv.Itoa(b.spec.K)
	checked := 0
	for i := 0; i < len(recs) && checked < 40; i += 17 {
		o := &b.stream[recs[i].idx]
		var path string
		var body []byte
		owner := 0
		method := http.MethodGet
		switch o.kind {
		case opRecommend:
			path = "/v1/recommend?k=" + k + "&user=" + strconv.Itoa(o.user)
			owner = tp.router.BackendFor(shard.UserKey(o.user))
		case opSimilar:
			path = "/v1/similar?item=" + strconv.Itoa(o.item) + "&k=" + k
			owner = tp.router.BackendFor(shard.ItemKey(o.item))
		case opNearest:
			path = "/v1/query:nearest?entity=item:" + strconv.Itoa(o.item) + "&k=" + k
			owner = tp.router.BackendFor(shard.ItemKey(o.item))
		case opAnalogy:
			path = fmt.Sprintf("/v1/query:analogy?a=item:%d&b=item:%d&c=item:%d&k=%s", o.a, o.b, o.c, k)
			owner = tp.router.BackendFor(shard.ItemKey(o.a))
		case opBatch:
			path, method = "/v1/recommend:batch", http.MethodPost
			body = []byte(fmt.Sprintf(`{"users":%s,"k":%s}`, strings.Join(strings.Fields(fmt.Sprint(o.users)), ","), k))
		default:
			continue
		}
		checked++
		viaRouter, err1 := get(method, tp.base+path, body)
		direct, err2 := get(method, tp.backends[owner]+path, body)
		if err1 != nil || err2 != nil || !bytes.Equal(viaRouter, direct) {
			b.fail("routed %s %s differs from backend %d", method, path, owner)
			b.extra++
		}
	}
	return checked
}

// finishOracle folds the ann recall gate into the verdict: if the mean
// recall misses the gate every ann answer under it counts as wrong.
func (b *bench) finishOracle() {
	if b.verdict.meanRecall() < b.spec.RecallGate {
		b.fail("ann mean recall %.4f below the %.2f gate", b.verdict.meanRecall(), b.spec.RecallGate)
		b.verdict.wrong += b.verdict.annBelow
	}
	if b.verdict.wrong > 0 {
		b.fail("%d answers differ from the reference: %v", b.verdict.wrong, b.verdict.wrongByKind)
	}
}

// cpuNS is the process's user+system CPU time.
func cpuNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB reads the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resetPeakRSS returns freed memory to the OS and resets the kernel's
// resident high-water mark, so the next peakRSSMB covers only what
// follows. Where the reset is unavailable the mark simply keeps rising.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// readLatencies returns the latencies (ms from due) of the read ops.
func readLatencies(recs []opRec) []float64 {
	var lat []float64
	for i := range recs {
		if recs[i].kind.isRead() {
			lat = append(lat, recs[i].latencyMS())
		}
	}
	return lat
}

func completed(recs []opRec) int {
	n := 0
	for i := range recs {
		if !recs[i].failed() {
			n++
		}
	}
	return n
}

// ingestLatencies returns the ingest ack latencies (ms from due).
func ingestLatencies(recs []opRec) []float64 {
	var out []float64
	for i := range recs {
		if recs[i].kind == opIngest {
			out = append(out, recs[i].latencyMS())
		}
	}
	return out
}

// sameAnswers compares the recorded answers of two replays of the same
// ops, on a sample of the reads whose answers do not depend on ingest
// ordering.
func sameAnswers(a, b []opRec) (int, bool) {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	checked := 0
	for i := 0; i < n; i += 7 {
		x, y := &a[i], &b[i]
		if x.idx != y.idx || x.failed() || y.failed() {
			continue
		}
		switch x.kind {
		case opRecommend, opRecommendANN, opSimilar, opNearest, opAnalogy:
			if !sameIDs(x.res.ids, y.res.ids) {
				return checked, false
			}
		case opBatch:
			for j := range x.res.batch {
				if !sameIDs(x.res.batch[j], y.res.batch[j]) {
					return checked, false
				}
			}
		default:
			continue
		}
		checked++
	}
	return checked, true
}

// memDelta is the runtime's allocation and GC activity over a phase.
type memDelta struct {
	mallocs, gcs uint64
	pauseP99MS   float64
}

func memDiff(before, after *runtime.MemStats) memDelta {
	d := memDelta{mallocs: after.Mallocs - before.Mallocs, gcs: uint64(after.NumGC - before.NumGC)}
	var pauses []float64
	for n := before.NumGC + 1; n <= after.NumGC && after.NumGC-n < uint32(len(after.PauseNs)); n++ {
		pauses = append(pauses, float64(after.PauseNs[(n+255)%256])/1e6)
	}
	if len(pauses) > 0 {
		d.pauseP99MS = percentile(pauses, 0.99)
	}
	return d
}

// heapInuseMB reports live heap after a forced collection.
func heapInuseMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// directReplay times the stream's first reads of each kind against the
// dispatcher directly, without HTTP, client or middleware.
func (b *bench) directReplay(ctx context.Context, tp *topology) map[string]float64 {
	disp := tp.servers[0].Dispatcher()
	k := b.spec.K
	const perKind = 200
	durs := map[opKind][]float64{}
	for i := 0; i < len(b.stream); i++ {
		o := &b.stream[i]
		if len(durs[o.kind]) >= perKind {
			continue
		}
		start := time.Now()
		switch o.kind {
		case opRecommend:
			disp.Recommend(ctx, o.user, k, shard.Query{Mode: api.ModeExact})
		case opBatch:
			disp.RecommendBatch(ctx, o.users, k, shard.Query{Mode: api.ModeExact})
		case opSimilar:
			_, _, _, _, _ = disp.Similar(ctx, o.item, k, b.orc.probes(o.item), shard.Query{Mode: api.ModeExact})
		case opNearest:
			_, _, _, _ = disp.Nearest(ctx, api.EntityRef{Kind: api.KindItem, ID: o.item}, k, "", shard.Query{Mode: api.ModeANN})
		case opAnalogy:
			a, bb, c := api.EntityRef{Kind: api.KindItem, ID: o.a}, api.EntityRef{Kind: api.KindItem, ID: o.b}, api.EntityRef{Kind: api.KindItem, ID: o.c}
			_, _, _, _ = disp.Analogy(ctx, a, bb, c, k, "", shard.Query{Mode: api.ModeANN})
		case opExplain:
			_, _, _ = disp.Explain(ctx, o.user, o.item)
		default:
			continue
		}
		durs[o.kind] = append(durs[o.kind], nsToUS(int64(time.Since(start))))
	}
	out := map[string]float64{}
	for _, kind := range []opKind{opRecommend, opBatch, opSimilar, opNearest, opAnalogy, opExplain} {
		if len(durs[kind]) > 0 {
			out["shard.dispatch_us."+kind.String()] = median(durs[kind])
		}
	}
	return out
}

// ledgerBytes sums the ledger's segment files.
func ledgerBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func formatFP(v uint64) string { return fmt.Sprintf("%016x", v) }

// finite reports a per-layer value that could not be measured (no
// samples, so NaN) as -1.
func finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}
