package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// fixedShare is the part of --seconds each fixed-rate phase of the
// traced run takes.
const fixedShare = 0.45

// plainRun is the end-to-end run: set up SetupRepeats times (setup_s
// is the median), warm up, then measure (fixed-rate windows
// interleaved with saturation windows) for --seconds. rss_mb is the
// larger of the median set-up peak (the high-water mark is reset before
// each set-up, so garbage-collection timing in one of them does not
// decide it) and the median peak of the fixed-rate windows.
func (b *bench) plainRun(ctx context.Context) (map[string]metric, error) {
	var setups, setupRSS []float64
	var tp *topology
	for i := 0; i < b.spec.SetupRepeats; i++ {
		start := time.Now()
		if i == 0 {
			start = procStart
		} else {
			tp.close()
			tp, b.fx = nil, nil
			resetPeakRSS()
		}
		var s float64
		var err error
		if tp, s, err = b.setup(ctx, start, fmt.Sprintf("setup%d", i)); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, s)
		setupRSS = append(setupRSS, peakRSSMB())
	}
	resetPeakRSS()
	defer tp.close()
	streamFP, modelFP := b.prepare()
	fmt.Printf("fingerprint stream=%s model=%s setups_s=%v setups_rss_mb=%v\n", formatFP(streamFP), formatFP(modelFP), setups, setupRSS)
	b.checkANN("plain", tp)

	cl := newCaller(tp.base, b.spec.Conns, b.spec.K, nil)
	defer cl.close()
	before := b.readCounters(tp)
	fixed := b.w.FixedRPS
	measureStart := time.Now()

	b.consume(b.phase(ctx, cl, "warmup", fixed, b.schedule("warmup", fixed, warmupDur)))
	fx := b.measure(ctx, cl, measureStart.Add(time.Duration(b.seconds*float64(time.Second))))
	if fx.capacity == 0 {
		b.fail("capacity_rps is 0: at least half of the saturation windows used failed ops or missed the SLO limit")
	}
	b.finishOracle()
	b.checkCounters("plain", before, b.readCounters(tp))
	if n := b.checkRouted(tp, fx.first); n > 0 {
		fmt.Printf("routed byte-equality: %d sampled answers compared\n", n)
	}
	if acked := b.checkIngest("plain", tp, b.acks); acked > 0 {
		fmt.Printf("ingest integrity: %d acknowledged events all in the ledger and the overlay\n", acked)
	}
	b.checkANN("plain (end)", tp)

	m := map[string]metric{
		"setup_s":       {median(setups), "s"},
		"p50_ms":        {fx.p50, "ms"},
		"p99_ms":        {fx.p99, "ms"},
		"capacity_rps":  {fx.capacity, "req/s"},
		"cpu_us_per_op": {fx.cpuUSPerOp, "us"},
		"rss_mb":        {math.Max(median(setupRSS), fx.rssMB), "MB"},
	}
	if il := fx.ingestMS; len(il) > 0 {
		m["ingest_p50_ms"] = metric{percentile(il, 0.5), "ms"}
		m["ingest_p99_ms"] = metric{percentile(il, 0.99), "ms"}
	}
	return m, nil
}

// consume checks a finished window's answers against the oracle and
// keeps its ingest acks. The plain run consumes every window as it
// ends and keeps only summaries, so the benchmark's own live heap stays
// flat over the run instead of growing with its records and pacing the
// server's garbage collector.
func (b *bench) consume(recs []opRec) {
	b.orc.check(b.stream, recs, &b.verdict)
	b.acks = append(b.acks, ingestAcks(recs)...)
}

// tracedRun replays the same seed and stream twice on fresh topologies
// over one fixture: once plain (the base for trace.overhead_* and the
// process counters) and once with timing wrappers, then times the
// stream's entities directly against the dispatcher.
func (b *bench) tracedRun(ctx context.Context) (map[string]metric, error) {
	tpPlain, setupS, err := b.setup(ctx, procStart, "plain")
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	heapMB := heapInuseMB()
	streamFP, modelFP := b.prepare()
	fmt.Printf("fingerprint stream=%s model=%s setup_s=%v\n", formatFP(streamFP), formatFP(modelFP), setupS)
	fixed := b.w.FixedRPS
	fixedDur := time.Duration(fixedShare * b.seconds * float64(time.Second))
	warmDue, fixedDue := b.schedule("warmup", fixed, warmupDur), b.schedule("fixed", fixed, fixedDur)

	// Plain replay.
	b.checkANN("plain", tpPlain)
	cl := newCaller(tpPlain.base, b.spec.Conns, b.spec.K, nil)
	before := b.readCounters(tpPlain)
	warmP := b.phase(ctx, cl, "warmup", fixed, warmDue)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuNS()
	plain := b.phase(ctx, cl, "fixed", fixed, fixedDue)
	cpu1 := cpuNS()
	runtime.ReadMemStats(&ms1)
	cl.close()
	b.checkCounters("plain", before, b.readCounters(tpPlain))
	b.checkIngest("plain", tpPlain, ingestAcks(warmP, plain))
	tpPlain.close()

	// Traced replay of the same ops on the same schedule.
	rec := newRecorder()
	tp, err := b.boot(b.fx, rec, "traced")
	if err != nil {
		return nil, err
	}
	defer tp.close()
	b.checkANN("traced", tp)
	tcl := newCaller(tp.base, b.spec.Conns, b.spec.K, rec)
	defer tcl.close()
	before = b.readCounters(tp)
	b.cursor = 0
	warmT := b.phase(ctx, tcl, "warmup+t", fixed, warmDue)
	rec.snapshot()
	hits0, miss0 := cacheStats(tp)
	accepts0, dials0 := backendAccepts(tp), tcl.dials.Load()
	cpu2 := cpuNS()
	tStart := time.Now()
	tr := b.phase(ctx, tcl, "fixed+t", fixed, fixedDue)
	wall := time.Since(tStart)
	cpu3 := cpuNS()
	spans, scores := rec.snapshot()
	hits1, miss1 := cacheStats(tp)
	accepts1, dials1 := backendAccepts(tp), tcl.dials.Load()
	after := b.readCounters(tp)
	b.checkCounters("traced", before, after)
	acked := b.checkIngest("traced", tp, ingestAcks(warmT, tr))

	for _, recs := range [][]opRec{warmP, plain, warmT, tr} {
		b.orc.check(b.stream, recs, &b.verdict)
	}
	b.finishOracle()
	if n, ok := sameAnswers(plain, tr); !ok {
		b.fail("traced answers differ from plain answers on the same ops")
	} else {
		fmt.Printf("plain vs traced: %d sampled answers identical\n", n)
	}

	dispatch := b.directReplay(ctx, tp)
	st := analyzeSpans(spans)
	ops := float64(completed(tr))
	lags, waits := make([]float64, len(plain)), make([]float64, len(plain))
	for i := range plain {
		lags[i], waits[i] = nsToMS(plain[i].enq-plain[i].due), nsToMS(plain[i].pick-plain[i].enq)
	}
	latPlain := readLatencies(plain)
	latTr := readLatencies(tr)
	cpuPlain := float64(cpu1-cpu0) / float64(max(completed(plain), 1))
	cpuTr := float64(cpu3-cpu2) / ops
	var scoreUS []float64
	var scoreBusy int64
	for _, d := range scores {
		scoreUS = append(scoreUS, nsToUS(d))
		scoreBusy += d
	}
	md := memDiff(&ms0, &ms1)

	v := map[string]float64{
		"bench.lag_p50_ms":             percentile(lags, 0.5),
		"bench.lag_p99_ms":             percentile(lags, 0.99),
		"bench.conn_wait_p99_ms":       percentile(waits, 0.99),
		"client.overhead_us":           median(st.overheadUS),
		"client.dials_per_kop":         perKop(float64(dials1-dials0), ops),
		"serve.self_busy_share":        ratio(float64(st.serveBusyNS-scoreBusy), float64(wall)),
		"shard.cache_hit_ratio":        ratio(float64(hits1-hits0), float64(hits1-hits0+miss1-miss0)),
		"core.score_calls_per_op":      ratio(float64(len(scores)), ops),
		"core.score_busy_share":        ratio(float64(scoreBusy), float64(wall)),
		"core.train_s":                 b.fx.trainS,
		"dataset.build_s":              b.fx.datasetS,
		"ann.build_ms":                 annBuildMS(tp),
		"ann.recall_at_k":              b.verdict.meanRecall(),
		"router.backend_dials_per_kop": 0,
		"router.retries":               after.retries - before.retries,
		"process.allocs_per_op":        ratio(float64(md.mallocs), float64(completed(plain))),
		"process.gc_cycles_per_kop":    perKop(float64(md.gcs), float64(completed(plain))),
		"process.gc_pause_p99_ms":      md.pauseP99MS,
		"process.heap_inuse_mb":        heapMB,
		"trace.overhead_p50_pct":       100 * (percentile(latTr, 0.5)/percentile(latPlain, 0.5) - 1),
		"trace.overhead_cpu_pct":       100 * (cpuTr/cpuPlain - 1),
	}
	if len(scoreUS) > 0 {
		v["core.score_p50_us"] = percentile(scoreUS, 0.5)
		v["core.score_p99_us"] = percentile(scoreUS, 0.99)
	}
	if tp.router != nil {
		v["router.self_us"] = median(st.routerSelf)
		v["router.backend_dials_per_kop"] = perKop(float64(accepts1-accepts0), ops)
	}
	if tp.led != nil {
		ls := tp.led.Stats()
		v["ledger.batches"] = float64(ls.Batches)
		v["ledger.bytes_per_event"] = ratio(float64(ledgerBytes(b.dir+"/traced")), float64(ls.Events))
		v["graph.delta_edges"] = float64(tp.app.Stats().Edges)
		fmt.Printf("ingest integrity: %d acknowledged events all in the ledger and the overlay\n", acked)
	}
	if c := st.handlerUS["/v1/admin/compact"]; len(c) > 0 {
		v["graph.compact_ms"] = median(c) / 1000
	}
	for kind, us := range st.clientUS {
		v["client.call_us."+kind] = median(us)
	}
	for path, us := range st.handlerUS {
		if name, ok := endpointNames[path]; ok {
			v["serve.handler_p50_us."+name] = percentile(us, 0.5)
			v["serve.handler_p99_us."+name] = percentile(us, 0.99)
		}
	}
	for n, x := range dispatch {
		v[n] = x
	}
	m := map[string]metric{}
	for _, l := range b.spec.Layers {
		m[l.Name] = metric{finite(v[l.Name]), l.Unit}
	}
	return m, nil
}

// endpointNames maps served paths onto metric-name suffixes.
var endpointNames = map[string]string{
	"/v1/recommend":       "recommend",
	"/v1/recommend:batch": "recommend_batch",
	"/v1/similar":         "similar",
	"/v1/query:nearest":   "query_nearest",
	"/v1/query:analogy":   "query_analogy",
	"/v1/explain":         "explain",
	"/v1/ingest":          "ingest",
}

func cacheStats(tp *topology) (hits, misses uint64) {
	for _, s := range tp.servers {
		h, m, _ := s.Dispatcher().CacheStats()
		hits, misses = hits+h, misses+m
	}
	return hits, misses
}

func backendAccepts(tp *topology) int64 {
	if tp.router == nil {
		return 0
	}
	var n int64
	for _, ln := range tp.backLns {
		n += ln.accepts.Load()
	}
	return n
}

func annBuildMS(tp *topology) float64 {
	var ms float64
	for _, s := range tp.servers {
		if v := s.Dispatcher().ANNStats().BuildMS; v > ms {
			ms = v
		}
	}
	return ms
}
