package loadgen

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/facility"
	"repro/internal/ingest"
	"repro/internal/ledger"
	"repro/internal/models"
	"repro/internal/router"
	"repro/internal/serve"
	"repro/internal/trace"
)

// Self-serve topologies: `loadgen -self` trains one small model and
// boots the requested serving shapes in-process on loopback listeners,
// so a capacity sweep over 1-shard vs N-shard vs router topologies
// runs from a single command with no external processes. The same
// trained scorer backs every topology, making the knee differences
// attributable to the serving architecture alone.

// SelfModel is the shared trained state behind every self topology.
type SelfModel struct {
	Trace   *trace.Trace
	Dataset *dataset.Dataset
	Model   *core.Model
}

// TrainSelfModel builds a compact OOI trace and trains the CKAT model
// on it. users/epochs scale the fixture; zero values pick defaults
// sized for sub-second training.
func TrainSelfModel(seed int64, users, epochs int) (*SelfModel, error) {
	if epochs <= 0 {
		epochs = 2
	}
	sm := TraceOnly(seed, users)
	d := sm.Dataset
	m := core.NewDefault()
	tc := models.DefaultTrainConfig()
	tc.Epochs = epochs
	tc.EmbedDim = 16
	tc.Seed = seed
	if err := m.Train(context.Background(), d, tc); err != nil {
		return nil, err
	}
	sm.Model = m
	return sm, nil
}

// TraceOnly builds the workload trace and its dataset split, skipping
// model training — enough to drive an external target whose scorer
// already exists. The dataset is still built because the workload
// needs the train/test item split (see WarmItems).
func TraceOnly(seed int64, users int) *SelfModel {
	if users <= 0 {
		users = 60
	}
	cat := facility.OOI(seed)
	cfg := trace.DefaultOOIConfig()
	cfg.NumUsers = users
	cfg.NumOrgs = 6
	cfg.MeanQueries = 18
	tr := trace.Generate(cat, cfg, seed)
	return &SelfModel{Trace: tr, Dataset: dataset.Build(tr, dataset.AllSources(), seed)}
}

// WarmItems lists the items with at least one training interaction —
// the set /v1/similar can answer for — sorted ascending.
func (sm *SelfModel) WarmItems() []int {
	if sm.Dataset == nil {
		return nil
	}
	seen := make(map[int]bool)
	var items []int
	for _, p := range sm.Dataset.Train {
		if !seen[p[1]] {
			seen[p[1]] = true
			items = append(items, p[1])
		}
	}
	sort.Ints(items)
	return items
}

// Topology is one live serving shape: the base URL the client drives,
// plus the ordered metrics-scrape targets (entry point first, then any
// backends behind it).
type Topology struct {
	Name    string
	Target  string
	Scrapes []string

	servers   []*http.Server
	listeners []net.Listener
	ledgers   []*ledger.Ledger
}

// Close shuts every listener in the topology down.
func (tp *Topology) Close() {
	for _, s := range tp.servers {
		s.Close()
	}
	for _, l := range tp.listeners {
		l.Close()
	}
	for _, led := range tp.ledgers {
		led.Close()
	}
}

// serveOn binds h to a fresh loopback port and serves it.
func (tp *Topology) serveOn(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln)
	tp.servers = append(tp.servers, srv)
	tp.listeners = append(tp.listeners, ln)
	return "http://" + ln.Addr().String(), nil
}

// newBackend builds one serve.Server over the shared model. When
// ingestDir is non-empty the backend gets a live ledger at
// ingestDir/<idx> so OpIngest traffic has somewhere to commit.
func (tp *Topology) newBackend(sm *SelfModel, idx int, ingestDir string, opts ...serve.Option) (*serve.Server, error) {
	if ingestDir != "" {
		app := ingest.New(sm.Dataset, sm.Dataset.CSR())
		led, _, err := ledger.Open(
			fmt.Sprintf("%s/backend-%d", ingestDir, idx),
			ledger.Options{OnBatch: app.OnBatch})
		if err != nil {
			return nil, fmt.Errorf("open self-ingest ledger: %w", err)
		}
		tp.ledgers = append(tp.ledgers, led)
		opts = append(opts, serve.WithIngest(led, app))
	}
	return serve.New(sm.Dataset, sm.Model, opts...), nil
}

// StartTopology boots one named serving shape over sm:
//
//	"1shard"          one serve.Server, one scorer shard
//	"<n>shard"        one serve.Server partitioned across n shards
//	"router"          a router fronting 2 single-shard backends
//	"router<n>"       a router fronting n single-shard backends
//
// opts are applied to every serve.Server in the shape.
func StartTopology(name string, sm *SelfModel, ingestDir string, opts ...serve.Option) (*Topology, error) {
	tp := &Topology{Name: name}
	fail := func(err error) (*Topology, error) {
		tp.Close()
		return nil, err
	}
	switch {
	case strings.HasSuffix(name, "shard"):
		n, err := strconv.Atoi(strings.TrimSuffix(name, "shard"))
		if err != nil || n < 1 {
			return fail(fmt.Errorf("bad topology %q: want <n>shard", name))
		}
		s, err := tp.newBackend(sm, 0, ingestDir, append(opts, serve.WithShards(n))...)
		if err != nil {
			return fail(err)
		}
		url, err := tp.serveOn(s)
		if err != nil {
			return fail(err)
		}
		tp.Target = url
		tp.Scrapes = []string{url}
	case strings.HasPrefix(name, "router"):
		n := 2
		if rest := strings.TrimPrefix(name, "router"); rest != "" {
			var err error
			if n, err = strconv.Atoi(rest); err != nil || n < 1 {
				return fail(fmt.Errorf("bad topology %q: want router<n>", name))
			}
		}
		backends := make([]string, n)
		for i := range backends {
			s, err := tp.newBackend(sm, i, ingestDir, opts...)
			if err != nil {
				return fail(err)
			}
			if backends[i], err = tp.serveOn(s); err != nil {
				return fail(err)
			}
		}
		rt, err := router.New(router.Config{Backends: backends})
		if err != nil {
			return fail(err)
		}
		url, err := tp.serveOn(rt)
		if err != nil {
			return fail(err)
		}
		tp.Target = url
		tp.Scrapes = append([]string{url}, backends...)
	default:
		return fail(fmt.Errorf("unknown topology %q (want <n>shard or router[<n>])", name))
	}
	return tp, nil
}
