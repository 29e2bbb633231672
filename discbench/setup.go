package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/trace"
)

// fixture is the trained state one workload serves: trace, dataset and
// CKAT model, generated from the workload seed.
type fixture struct {
	d        *dataset.Dataset
	model    *core.Model
	datasetS float64 // catalog + trace + dataset build + CKG freeze
	trainS   float64
}

func buildFixture(ctx context.Context, w *WorkloadSpec, seed int64) (*fixture, error) {
	start := time.Now()
	var cat *facility.Catalog
	var cfg trace.Config
	switch w.Facility {
	case "ooi":
		cat = facility.OOI(seed)
		cfg = trace.DefaultOOIConfig()
	case "gage":
		cat = facility.GAGE(seed, facility.DefaultGAGEConfig())
		cfg = trace.DefaultGAGEConfig()
	default:
		return nil, fmt.Errorf("unknown facility %q", w.Facility)
	}
	cfg.NumUsers, cfg.NumOrgs, cfg.MeanQueries = w.Users, w.Orgs, w.MeanQueries
	d := dataset.Build(trace.Generate(cat, cfg, seed), dataset.AllSources(), seed)
	d.CSR()
	f := &fixture{d: d, datasetS: time.Since(start).Seconds()}

	start = time.Now()
	f.model = core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs, tc.EmbedDim, tc.Seed = w.Epochs, w.Dim, seed
	if err := f.model.Train(ctx, d, tc); err != nil {
		return nil, fmt.Errorf("train CKAT: %w", err)
	}
	f.trainS = time.Since(start).Seconds()
	return f, nil
}

// modelFingerprint hashes every user and item embedding row bit for
// bit, so a training change that moves the model changes it.
func modelFingerprint(m eval.VectorScorer) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(row []float64) {
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for u := 0; u < m.NumUsers(); u++ {
		put(m.UserVector(u))
	}
	for i := 0; i < m.NumItems(); i++ {
		put(m.ItemVector(i))
	}
	return h.Sum64()
}

// topology is one live serving shape on loopback: a single serve.Server
// or a router over single-shard backends, assembled with the options
// cmd/serve and cmd/router apply by default.
type topology struct {
	base     string          // entry URL the generator drives
	backends []string        // backend URLs (== base for a single server)
	servers  []*serve.Server // one per backend
	router   *router.Router  // nil without a router
	backLns  []*countingListener
	led      *ledger.Ledger
	app      *ingest.Applier

	https []*http.Server
	wg    sync.WaitGroup
}

// startTopology boots w's shape over f. With rec non-nil the model is
// wrapped in a timing scorer and every handler in a timing handler.
// ledgerDir is used when the workload ingests.
func startTopology(f *fixture, w *WorkloadSpec, rec *recorder, ledgerDir string) (tp *topology, err error) {
	tp = &topology{}
	defer func() {
		if err != nil {
			tp.close()
		}
	}()
	var scorer eval.Scorer = f.model
	if rec != nil {
		scorer = &timedScorer{VectorScorer: f.model, rec: rec}
	}
	opts := []serve.Option{
		serve.WithTimeout(serve.DefaultTimeout),
		serve.WithCacheSize(w.CacheSize),
		serve.WithShards(serve.DefaultShards),
		serve.WithSLOs(serve.DefaultSLOs(serve.DefaultSLOObjectiveMS, serve.DefaultSLOTarget, serve.DefaultSLOWindow)...),
		serve.WithANN(shard.ANNConfig{Index: ann.Config{M: ann.DefaultM, EfSearch: ann.DefaultEfSearch, Seed: ann.DefaultSeed}}),
	}
	if w.Ledger {
		tp.app = ingest.New(f.d, f.d.CSR())
		tp.led, _, err = ledger.Open(filepath.Join(ledgerDir, "ledger"), ledger.Options{OnBatch: tp.app.OnBatch})
		if err != nil {
			return tp, fmt.Errorf("open ledger: %w", err)
		}
		opts = append(opts, serve.WithIngest(tp.led, tp.app))
	}
	n := w.Backends
	if n == 0 {
		n = 1
	}
	for i := 0; i < n; i++ {
		s := serve.New(f.d, scorer, opts...)
		tp.servers = append(tp.servers, s)
		var h http.Handler = s
		if rec != nil {
			h = rec.handler("serve", s)
		}
		url, ln, err := tp.listen(h, serve.DefaultTimeout)
		if err != nil {
			return tp, err
		}
		tp.backends = append(tp.backends, url)
		tp.backLns = append(tp.backLns, ln)
	}
	if w.Backends == 0 {
		tp.base = tp.backends[0]
		return tp, nil
	}
	tp.router, err = router.New(router.Config{
		Backends: tp.backends, Timeout: router.DefaultTimeout, TraceRing: router.DefaultTraceRing,
	})
	if err != nil {
		return tp, err
	}
	var h http.Handler = tp.router
	if rec != nil {
		h = rec.handler("router", tp.router)
	}
	tp.base, _, err = tp.listen(h, router.DefaultTimeout)
	return tp, err
}

// listen serves h on a fresh loopback port with the http.Server
// settings of cmd/serve and cmd/router.
func (tp *topology) listen(h http.Handler, timeout time.Duration) (string, *countingListener, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ln := &countingListener{Listener: l}
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      timeout + 5*time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	tp.https = append(tp.https, srv)
	tp.wg.Add(1)
	go func() {
		defer tp.wg.Done()
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("serve %s: %v\n", ln.Addr(), err)
		}
	}()
	return "http://" + ln.Addr().String(), ln, nil
}

// close stops every server, waits for their serve loops to return and
// closes the ledger.
func (tp *topology) close() {
	for _, s := range tp.https {
		s.Close()
	}
	tp.wg.Wait()
	if tp.led != nil {
		tp.led.Close()
	}
}
