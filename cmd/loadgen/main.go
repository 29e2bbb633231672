// Command loadgen is the open-loop capacity harness: it replays the
// paper's synthetic query traces against a live /v1 server (or the
// router in front of several) at fixed Poisson arrival rates, walks a
// rate ladder, and reports where the declared SLO breaks.
//
// Drive a live deployment:
//
//	loadgen -target http://localhost:8080 -rates 100,200,400,800 -step-dur 10s
//
// Or let the harness boot its own in-process topologies (shared tiny
// model, loopback listeners) and sweep all of them:
//
//	loadgen -self 1shard,4shard,router2 -rates 200,400,800 -json BENCH_load.json
//
// Latency is measured from each request's *scheduled* arrival time, so
// server-side queueing under overload is charged to the server instead
// of silently stretching the offered rate (no coordinated omission).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/serve/client"
)

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "loadgen:", err)
	os.Exit(1)
}

func main() {
	target := flag.String("target", "", "base URL of a live server or router to drive")
	self := flag.String("self", "", "comma-separated self-serve topologies to boot and sweep (e.g. 1shard,4shard,router2)")
	rates := flag.String("rates", "50,100,200,400", "comma-separated offered rates (ops/sec), ascending")
	stepDur := flag.Duration("step-dur", 5*time.Second, "duration of each rate step")
	warmup := flag.Duration("warmup", time.Second, "warmup load before the first measured step")
	mixSpec := flag.String("mix", loadgen.DefaultMix().String(), "endpoint mix weights")
	k := flag.Int("k", 10, "top-k for ranking endpoints")
	seed := flag.Int64("seed", 11, "workload and arrival-process seed")
	maxInflight := flag.Int("max-inflight", loadgen.DefaultMaxInflight, "harness-side concurrent request cap")
	batchSize := flag.Int("batch-size", 8, "users per recommend:batch op")
	sloP99 := flag.Float64("slo-p99", 250, "SLO: client p99 latency bound in ms")
	sloShed := flag.Float64("slo-shed", 0.01, "SLO: max shed fraction of offered load")
	stopOnBreach := flag.Bool("stop-on-breach", true, "stop a topology's ladder at the first SLO breach (the knee search)")
	scrapeExtra := flag.String("scrape", "", "extra /metrics scrape base URLs (comma-separated; for -target router deployments, list the backends)")
	users := flag.Int("self-users", 60, "self mode: trace users")
	epochs := flag.Int("self-epochs", 2, "self mode: training epochs")
	csvPath := flag.String("csv", "", "write per-step CSV here")
	jsonPath := flag.String("json", "BENCH_load.json", "write the run summary here (empty to skip)")
	flag.Parse()

	if (*target == "") == (*self == "") {
		fatal(fmt.Errorf("exactly one of -target or -self is required"))
	}
	mix, err := loadgen.ParseMix(*mixSpec)
	if err != nil {
		fatal(err)
	}
	var rateLadder []float64
	for _, r := range strings.Split(*rates, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(r), 64)
		if err != nil || v <= 0 {
			fatal(fmt.Errorf("bad rate %q", r))
		}
		rateLadder = append(rateLadder, v)
	}
	slo := loadgen.SLOSpec{P99MS: *sloP99, MaxShed: *sloShed}
	ctx := context.Background()

	// Resolve the topologies to sweep: either the one external target,
	// or each requested self-serve shape over one shared model.
	type sweep struct {
		name    string
		target  string
		scrapes []string
		cleanup func()
	}
	var sweeps []sweep
	var workload *loadgen.Workload
	if *target != "" {
		scrapes := []string{strings.TrimRight(*target, "/")}
		for _, s := range strings.Split(*scrapeExtra, ",") {
			if s = strings.TrimSpace(s); s != "" {
				scrapes = append(scrapes, strings.TrimRight(s, "/"))
			}
		}
		sweeps = append(sweeps, sweep{name: "target", target: scrapes[0], scrapes: scrapes})
		// The external server's entity space is unknown; synthesize the
		// workload from the same compact trace self mode uses, which
		// stays within any OOI-shaped deployment's ID range.
		sm := trainForWorkload(*seed, *users)
		workload = buildWorkload(sm, mix, *batchSize, *seed)
	} else {
		fmt.Printf("training the shared self-serve model (users=%d epochs=%d)...\n", *users, *epochs)
		sm, err := loadgen.TrainSelfModel(*seed, *users, *epochs)
		if err != nil {
			fatal(err)
		}
		workload = buildWorkload(sm, mix, *batchSize, *seed)
		ingestDir := ""
		if strings.Contains(*mixSpec, "ingest") {
			dir, err := os.MkdirTemp("", "loadgen-ledger-*")
			if err != nil {
				fatal(err)
			}
			defer os.RemoveAll(dir)
			ingestDir = dir
		}
		for _, name := range strings.Split(*self, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if ingestDir != "" && strings.HasPrefix(name, "router") {
				fatal(fmt.Errorf("the router does not route /v1/ingest; drop ingest from -mix or the %s topology", name))
			}
			tp, err := loadgen.StartTopology(name, sm, ingestDir)
			if err != nil {
				fatal(err)
			}
			defer tp.Close()
			sweeps = append(sweeps, sweep{name: tp.Name, target: tp.Target, scrapes: tp.Scrapes, cleanup: tp.Close})
		}
	}
	if len(sweeps) == 0 {
		fatal(fmt.Errorf("no topologies to sweep"))
	}

	hc := &http.Client{Timeout: 30 * time.Second}
	var steps []loadgen.StepResult
	for _, sw := range sweeps {
		cl := client.New(sw.target, client.WithHTTPClient(hc))
		if *warmup > 0 && len(rateLadder) > 0 {
			loadgen.Run(ctx, cl, workload, loadgen.RunConfig{
				Rate: rateLadder[0], Duration: *warmup, K: *k,
				MaxInflight: *maxInflight, Seed: *seed,
			})
		}
		for i, rate := range rateLadder {
			before, err := loadgen.ScrapeAll(ctx, hc, sw.scrapes)
			if err != nil {
				fatal(err)
			}
			cfg := loadgen.RunConfig{
				Rate: rate, Duration: *stepDur, K: *k,
				MaxInflight: *maxInflight, Seed: *seed + int64(i),
			}
			rr := loadgen.Run(ctx, cl, workload, cfg)
			after, err := loadgen.ScrapeAll(ctx, hc, sw.scrapes)
			if err != nil {
				fatal(err)
			}
			sd, err := loadgen.Delta(before, after)
			if err != nil {
				fatal(err)
			}
			st := loadgen.NewStepResult(sw.name, cfg, rr, sd, slo)
			steps = append(steps, st)
			status := "PASS"
			if !st.SLOPass {
				status = "BREACH (" + st.Breach + ")"
			}
			fmt.Printf("%-10s %7.0f qps offered | %7.1f achieved | client p50 %.1fms p99 %.1fms | server p99 %.1fms | shed %d | %s\n",
				sw.name, st.RateQPS, st.AchievedQPS, st.ClientP50MS, st.ClientP99MS, st.ServerP99MS, st.Sheds, status)
			if !st.SLOPass && *stopOnBreach {
				break
			}
		}
	}

	summary := loadgen.NewSummary(mix, *k, *seed, slo, steps)
	for topo, knee := range summary.KneeQPS {
		if summary.Breached[topo] {
			fmt.Printf("knee[%s] = %.0f qps (SLO breached above)\n", topo, knee)
		} else {
			fmt.Printf("knee[%s] >= %.0f qps (ladder exhausted without breach)\n", topo, knee)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := loadgen.WriteCSV(f, steps); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Println("wrote", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := summary.WriteJSON(f); err != nil {
			fatal(err)
		}
		f.Close()
		fmt.Println("wrote", *jsonPath)
	}
}

// trainForWorkload builds just the trace (no model training) for
// external-target runs.
func trainForWorkload(seed int64, users int) *loadgen.SelfModel {
	return loadgen.TraceOnly(seed, users)
}

func buildWorkload(sm *loadgen.SelfModel, mix loadgen.Mix, batchSize int, seed int64) *loadgen.Workload {
	// 4096 precomputed ops is plenty: the runner wraps around the
	// stream, and the trace's affinity structure repeats at scale.
	w, err := loadgen.BuildWorkload(sm.Trace, mix, 4096, batchSize, seed, sm.WarmItems())
	if err != nil {
		fatal(err)
	}
	return w
}
