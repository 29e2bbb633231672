// Command serve trains a CKAT model on a synthetic facility (or loads
// a snapshot saved earlier) and exposes it as the versioned JSON
// data-discovery API of internal/serve, with graceful shutdown on
// SIGINT/SIGTERM.
//
//	serve -facility ooi -epochs 10 -addr :8080
//	serve -facility ooi -snapshot /tmp/ckat.ckpt -save   # train + persist
//	serve -facility ooi -snapshot /tmp/ckat.ckpt         # load + serve
//
// Fault tolerance: a missing or corrupt snapshot does not abort
// startup — the server boots degraded (popularity fallback,
// /v1/health/ready answering 503) and keeps retrying via hot reload.
// SIGHUP or POST /v1/admin/reload re-reads the snapshot and swaps it
// in without dropping traffic. Snapshots are written atomically in the
// checksummed ckpt framing, the only format the loader accepts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/facility"
	"repro/internal/graph"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/shard"
)

func main() {
	fac := flag.String("facility", "ooi", "facility: ooi, gage, or fed (federated OOI+GAGE)")
	addr := flag.String("addr", ":8080", "listen address")
	epochs := flag.Int("epochs", 10, "training epochs")
	dim := flag.Int("dim", 32, "embedding size")
	seed := flag.Int64("seed", 7, "seed")
	snapshot := flag.String("snapshot", "", "snapshot path (load, or save with -save)")
	ledgerDir := flag.String("ledger-dir", "", "query-event ledger directory: replay on boot, enable POST /v1/ingest")
	save := flag.Bool("save", false, "train and save the snapshot, then serve")
	timeout := flag.Duration("timeout", serve.DefaultTimeout, "per-request deadline")
	cacheSize := flag.Int("cache", serve.DefaultCacheSize, "score-vector cache entries")
	shards := flag.Int("shards", serve.DefaultShards, "in-process scorer shards (consistent-hash partitioned)")
	maxInflight := flag.Int("max-inflight", 0, "shed requests beyond this inflight cap (0 disables)")
	sloP99 := flag.Float64("slo-p99-ms", serve.DefaultSLOObjectiveMS, "per-endpoint latency objective for the declared SLOs (ms)")
	sloTarget := flag.Float64("slo-target", serve.DefaultSLOTarget, "promised good-request fraction per SLO")
	sloWindow := flag.Duration("slo-window", serve.DefaultSLOWindow, "SLO evaluation window")
	annOn := flag.Bool("ann", true, "build per-shard HNSW indexes for mode=ann and the /v1/query endpoints")
	annEF := flag.Int("ann-ef", ann.DefaultEfSearch, "default ann search breadth (per-request ef overrides)")
	annM := flag.Int("ann-m", ann.DefaultM, "HNSW connectivity (neighbors per node)")
	annSeed := flag.Int64("ann-seed", ann.DefaultSeed, "deterministic HNSW construction seed")
	workers := flag.Int("workers", 0, "training workers (<=1 sequential, >1 round-parallel)")
	quiet := flag.Bool("quiet", false, "disable per-request logging")
	logJSON := flag.Bool("log-json", false, "emit structured logs as JSON instead of text")
	pprofOn := flag.Bool("pprof", false, "expose /debug/pprof/ on the serving address")
	flag.Parse()

	var d *dataset.Dataset
	var fed *dataset.Federated
	switch *fac {
	case "ooi":
		d = dataset.BuildOOI(*seed, dataset.AllSources())
	case "gage":
		d = dataset.BuildGAGE(*seed, dataset.AllSources())
	case "fed":
		var err error
		fed, err = dataset.BuildFederated(
			[]*facility.Schema{facility.BuiltinOOI(), facility.BuiltinGAGE()},
			dataset.AllSources(), *seed)
		if err != nil {
			fatal(err)
		}
		d = fed.Dataset
	default:
		fmt.Fprintf(os.Stderr, "unknown facility %q\n", *fac)
		os.Exit(2)
	}

	// Resolve the scorer. A load failure degrades instead of exiting:
	// the popularity fallback serves while the operator fixes or
	// replaces the snapshot and triggers a reload.
	var scorer eval.Scorer
	var snapCSR *graph.CSR
	degradedBoot := false
	if *snapshot != "" && !*save {
		snap, err := core.LoadSnapshotFile(*snapshot)
		if err != nil {
			fmt.Fprintf(os.Stderr, "snapshot unusable (%v); starting DEGRADED with popularity fallback\n", err)
			degradedBoot = true
		} else {
			fmt.Printf("loaded snapshot for %s (%d users, %d items)\n",
				snap.FacilityName, len(snap.UserEnt), len(snap.ItemEnt))
			scorer = snap.Scorer()
			// Snapshots persisted since the graph core carry the frozen
			// CKG; booting from it skips the freeze of the rebuilt
			// dataset graph. Legacy snapshots return (nil, nil) and the
			// server freezes the dataset's CKG itself.
			if c, err := snap.CSR(); err != nil {
				fmt.Fprintf(os.Stderr, "snapshot graph unusable (%v); refreezing the dataset CKG\n", err)
			} else if c != nil && c.NumEntities() == d.Graph.NumEntities() {
				snapCSR = c
			}
		}
	} else {
		m := core.NewDefault()
		cfg := models.DefaultTrainConfig()
		cfg.Epochs = *epochs
		cfg.EmbedDim = *dim
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.Progress = func(ev models.ProgressEvent) {
			fmt.Printf("  epoch %d/%d loss=%.4f %.2fs %.0f samples/s\n",
				ev.Epoch, ev.Epochs, ev.Loss, ev.Duration.Seconds(), ev.SamplesPerSec)
		}
		fmt.Printf("training CKAT on %s (%d epochs, workers=%d)...\n",
			d.Name, *epochs, cfg.EffectiveWorkers())
		if err := m.Train(context.Background(), d, cfg); err != nil {
			fatal(err)
		}
		metrics := eval.Evaluate(d, m, 20)
		fmt.Printf("recall@20=%.4f ndcg@20=%.4f\n", metrics.Recall, metrics.NDCG)
		if *save && *snapshot != "" {
			if err := m.Snapshot(d.Name).SaveFile(*snapshot); err != nil {
				fatal(err)
			}
			fmt.Printf("saved snapshot to %s (atomic, checksummed)\n", *snapshot)
		}
		scorer = m
	}

	// Live ingestion: open the ledger and replay every committed batch
	// into the overlay applier before the listener comes up, so a
	// restart serves exactly the graph it acknowledged before crashing.
	var led *ledger.Ledger
	var app *ingest.Applier
	if *ledgerDir != "" {
		base := snapCSR
		if base == nil {
			base = d.CSR()
		}
		app = ingest.New(d, base)
		var rec ledger.Recovery
		var err error
		led, rec, err = ledger.Open(*ledgerDir, ledger.Options{OnBatch: app.OnBatch})
		if err != nil {
			fatal(err)
		}
		defer led.Close()
		fmt.Printf("ledger: replayed %d batches (%d events) from %s\n", rec.Batches, rec.Events, *ledgerDir)
		if rec.TruncatedBytes > 0 || rec.RemovedSegments > 0 {
			fmt.Printf("ledger: recovered from torn tail (%d bytes truncated, %d segments removed)\n",
				rec.TruncatedBytes, rec.RemovedSegments)
		}
	}

	opts := []serve.Option{
		serve.WithTimeout(*timeout),
		serve.WithCacheSize(*cacheSize),
		serve.WithShards(*shards),
		serve.WithSLOs(serve.DefaultSLOs(*sloP99, *sloTarget, *sloWindow)...),
	}
	if led != nil {
		opts = append(opts, serve.WithIngest(led, app))
	}
	if fed != nil {
		opts = append(opts, serve.WithFederation(fed))
	}
	if *annOn {
		opts = append(opts, serve.WithANN(shard.ANNConfig{
			Index: ann.Config{M: *annM, EfSearch: *annEF, Seed: *annSeed},
		}))
	} else {
		opts = append(opts, serve.WithoutANN())
	}
	if snapCSR != nil {
		opts = append(opts, serve.WithCSR(snapCSR))
	}
	if *maxInflight > 0 {
		opts = append(opts, serve.WithMaxInflight(*maxInflight))
	}
	if *snapshot != "" {
		path := *snapshot
		opts = append(opts, serve.WithLoader(func() (eval.Scorer, error) {
			snap, err := core.LoadSnapshotFile(path)
			if err != nil {
				return nil, err
			}
			return snap.Scorer(), nil
		}))
	}
	if !*quiet {
		if *logJSON {
			opts = append(opts, serve.WithSlog(obs.NewJSONLogger(os.Stderr, slog.LevelInfo)))
		} else {
			opts = append(opts, serve.WithSlog(obs.NewLogger(os.Stderr, slog.LevelInfo)))
		}
	}
	handler := serve.New(d, scorer, opts...)
	// Replayed delta edges become visible to the shards' path finders
	// by compacting once at boot: the merged graph freezes and swaps in
	// through the same generation path /v1/admin/compact uses.
	if app != nil && (app.Overlay().DeltaEdges() > 0 || app.Overlay().DeltaEntities() > 0) {
		c := app.Compact()
		handler.Dispatcher().SetGraph(c)
		fmt.Printf("ledger: compacted replayed delta into the serving graph (%d entities, %d edges)\n",
			c.NumEntities(), c.NumEdges())
	}
	if degradedBoot {
		fmt.Println("serving DEGRADED: /v1/health/ready is 503; SIGHUP or POST /v1/admin/reload to retry the snapshot")
	}

	// -pprof mounts the profiling handlers next to the API on the same
	// listener, on a private mux so they stay opt-in.
	var root http.Handler = handler
	if *pprofOn {
		pprofMux := obs.PprofMux()
		root = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasPrefix(r.URL.Path, "/debug/pprof/") {
				pprofMux.ServeHTTP(w, r)
				return
			}
			handler.ServeHTTP(w, r)
		})
	}

	srv := &http.Server{
		Addr:              *addr,
		Handler:           root,
		ReadHeaderTimeout: 5 * time.Second,
		// The per-request deadline lives in the serve middleware;
		// WriteTimeout is a backstop slightly above it.
		WriteTimeout: *timeout + 5*time.Second,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP = hot reload the snapshot (the operator replaced the file).
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := handler.Reload(); err != nil {
				fmt.Fprintf(os.Stderr, "SIGHUP reload failed: %v\n", err)
				continue
			}
			fmt.Println("SIGHUP reload: snapshot swapped in")
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	fmt.Printf("serving %s data discovery on %s (%d scorer shard(s))\n", d.Name, *addr, *shards)
	fmt.Println("  GET  /v1/health | /v1/health/live | /v1/health/ready | /v1/recommend?user=&k= | /v1/similar?item=&k= | /v1/explain?user=&item= | /v1/stats")
	fmt.Println("  GET  /v1/query:nearest?entity=item:42&k=&type= | /v1/query:analogy?a=&b=&c=&k= (semantic queries; &mode=exact|ann, &ef=)")
	if fed != nil {
		fmt.Println("  federated snapshot: &facility=OOI|GAGE restricts recommend/query results to one member facility")
	}
	fmt.Println("  GET  /metrics (Prometheus) | /v1/debug/traces (recent request traces)")
	fmt.Println("  POST /v1/recommend:batch   {\"users\":[...],\"k\":10}")
	fmt.Println("  POST /v1/admin/reload      (or SIGHUP) hot-swap the snapshot")
	if led != nil {
		fmt.Println("  POST /v1/ingest            {\"events\":[{\"user\":0,\"item\":42}]} durable query-event ingestion")
		fmt.Println("  POST /v1/admin/compact     fold the ingested delta into the serving graph")
	}
	if *pprofOn {
		fmt.Println("  GET  /debug/pprof/ (profiling enabled)")
	}

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Println("\nshutting down (draining inflight requests)...")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintf(os.Stderr, "forced shutdown: %v\n", err)
			_ = srv.Close()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
