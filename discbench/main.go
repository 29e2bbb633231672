// Command discbench is the repository's end-to-end benchmark of the
// /v1 discovery service. For one named workload and seed it generates
// the trace, dataset and op stream, trains CKAT, boots the serving
// topology in-process on loopback (as cmd/serve and cmd/router build
// it), drives it open-loop with Poisson arrivals over two keep-alive
// connections, checks every answer against a reference computed from
// the model, and prints the metrics named in BENCHMARK.json.
//
//	bash discbench/run.sh --workload routed --seed 1 --seconds 36 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 replays the same
// stream with timing wrappers around the client, the handlers and the
// scorer and prints the per-layer metrics instead. The last line of
// standard output is one JSON object; the lines before it are the
// human-readable record (environment, fingerprints, every phase's
// sent/succeeded/failed counts, every metric with its unit). The exit
// code is non-zero when any answer, counter or integrity check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

func main() { os.Exit(run()) }

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run() int {
	workload := flag.String("workload", "", "workload name from spec.json")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 20, "measured seconds per run")
	traced := flag.Int("trace", 0, "1: traced per-layer run instead of the plain end-to-end run")
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	w, ok := spec.Workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *workload)
		return 2
	}
	// The whole run, set-up included, must end well within three
	// minutes; the context bounds every request and phase.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	dir, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer os.RemoveAll(dir)

	b := &bench{spec: spec, w: w, name: *workload, seed: *seed, seconds: *seconds, dir: dir}
	printEnv(b)
	var metrics map[string]metric
	if *traced == 1 {
		metrics, err = b.tracedRun(ctx)
	} else {
		metrics, err = b.plainRun(ctx)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "discbench:", err)
		return 1
	}
	for _, p := range b.phases {
		fmt.Printf("phase %-8s rate=%8.1f/s sent=%6d succeeded=%6d failed=%4d read_p50=%.3fms read_p99=%.3fms lag_p99=%.3fms conn_wait_p99=%.3fms %s\n",
			p.name, p.rate, p.sent, p.succeeded, p.failed, p.p50, p.p99, p.lagP99, p.waitP99, p.status)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-34s %14.6f %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, n := range b.notes {
		fmt.Println("note:", n)
	}
	for _, p := range b.problems {
		fmt.Println("CHECK FAILED:", p)
	}
	attempted, failed := 0, b.extra
	for _, p := range b.phases {
		attempted += p.sent
		failed += p.failed
	}
	failed += b.verdict.wrong
	correct := len(b.problems) == 0 && failed == 0
	if attempted > 0 {
		fmt.Printf("metric %-34s %14.6f ratio\n", "error_frac", float64(failed)/float64(attempted))
	}
	// The JSON line carries exactly the metrics BENCHMARK.json lists for
	// this mode; the human lines above carry the rest.
	out := map[string]metric{}
	for n, m := range metrics {
		if listed(spec, n, *traced == 1) {
			out[n] = m
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// listed reports whether name is a JSON metric of the given mode: the
// per-layer names of spec.json in a traced run, the end-to-end set
// otherwise.
func listed(spec *Spec, name string, traced bool) bool {
	if traced {
		for _, l := range spec.Layers {
			if l.Name == name {
				return true
			}
		}
		return false
	}
	for _, n := range endToEnd {
		if n == name {
			return true
		}
	}
	return false
}

// endToEnd names the end-to-end metrics every workload reports in its
// JSON line, the ones BENCHMARK.json bounds. The human lines also carry
// p99_ms, which on a shared machine with few cores moves with the host's
// stall episodes more than any bound a regression gate could use;
// ingest_p50_ms and ingest_p99_ms, which only ingest-mix has; and
// error_frac, which is zero on every correct run.
var endToEnd = []string{"setup_s", "p50_ms", "capacity_rps", "cpu_us_per_op", "rss_mb"}

func printEnv(b *bench) {
	cpu := "unknown"
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					cpu = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	commit := os.Getenv("DISCBENCH_COMMIT") // set by run.sh
	if commit == "" {
		commit = "unknown"
	}
	fmt.Printf("env commit=%s go=%s goos=%s goarch=%s gomaxprocs=%d nproc=%d cpu=%q\n",
		commit, runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU(), cpu)
	fmt.Printf("run workload=%s seed=%d seconds=%g fixed_rps=%g conns=%d slo_p99_ms=%g window_lag_p99_max_ms=%g\n",
		b.name, b.seed, b.seconds, b.w.FixedRPS, b.spec.Conns, b.spec.SLOP99MS, b.spec.WindowLagP99MaxMS)
}
