package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve/api"
	"repro/internal/serve/client"
)

// The open-loop generator. One scheduling goroutine (the caller of
// runPhase) sleeps until each pre-drawn due time and hands the op to
// the connection workers; conns workers each run one request at a time
// over a transport capped at conns keep-alive connections. Every op
// records four instants on one clock:
//
//	due   when the schedule said it should be sent
//	enq   when the scheduler actually released it (enq−due: generator lag)
//	pick  when a connection worker took it (pick−enq: connection wait)
//	done  when the answer was decoded
//
// Latency is done−due, so a stall charges every op queued behind it.
// Lag is reported on its own: it is the generator's lateness, not the
// program's, and a measurement round whose lag tail exceeds the spec
// bound is invalid.

// opRec is one executed op.
type opRec struct {
	idx                  int // stream index
	kind                 opKind
	due, enq, pick, done int64
	err                  string // "" when the call succeeded
	res                  result
}

// result keeps what the oracle checks after the phase.
type result struct {
	ids        []int   // recommend / similar / nearest / analogy
	batch      [][]int // batch, in response order
	batchUsers []int
	echo       [2]int // explain user/item echo
	ack        api.IngestResponse
}

func (r *opRec) failed() bool { return r.err != "" }

// latencyMS is done−due in ms; a failed op is +Inf, so it misses every
// latency limit.
func (r *opRec) latencyMS() float64 {
	if r.failed() {
		return posInf
	}
	return nsToMS(r.done - r.due)
}

// runPhase issues stream[(first+i) % len(stream)] at due[i] (ns from
// phase start) and returns one record per op once every op has
// completed.
func runPhase(ctx context.Context, cl *caller, stream []op, first int, due []int64) []opRec {
	recs := make([]opRec, len(due))
	// Sized to the number of sends, so the scheduler never blocks on
	// busy workers: a late op's wait shows as connection wait.
	queue := make(chan int, len(due))
	var wg sync.WaitGroup
	start := time.Now()
	since := func() int64 { return int64(time.Since(start)) }
	for w := 0; w < cl.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				r := &recs[i]
				r.pick = since()
				cl.exec(ctx, &stream[r.idx], r)
				r.done = since()
			}
		}()
	}
	for i, d := range due {
		if wait := time.Duration(d - since()); wait > 0 {
			time.Sleep(wait)
		}
		r := &recs[i]
		r.idx = (first + i) % len(stream)
		r.kind, r.due, r.enq = stream[r.idx].kind, d, since()
		queue <- i
	}
	close(queue)
	wg.Wait()
	return recs
}

// caller executes ops through the typed client.
type caller struct {
	conns  int
	k      int
	hc     *http.Client
	exact  *client.Client
	ann    *client.Client
	base   string
	dials  atomic.Int64
	rec    *recorder // non-nil in the traced phase
	nextID atomic.Uint64
}

func newCaller(base string, conns, k int, traced *recorder) *caller {
	cl := &caller{conns: conns, k: k, base: base, rec: traced}
	dialer := &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	var rt http.RoundTripper = &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			cl.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     90 * time.Second,
	}
	if traced != nil {
		rt = traceTransport{base: rt}
	}
	cl.hc = &http.Client{Timeout: 10 * time.Second, Transport: rt}
	cl.exact = client.New(base, client.WithHTTPClient(cl.hc))
	cl.ann = client.New(base, client.WithHTTPClient(cl.hc), client.WithMode(api.ModeANN))
	return cl
}

func (cl *caller) close() { cl.hc.CloseIdleConnections() }

// exec runs one op and fills r.err / r.res.
func (cl *caller) exec(ctx context.Context, o *op, r *opRec) {
	var start time.Time
	var id uint64
	if cl.rec != nil {
		id = cl.nextID.Add(1)
		ctx = withTrace(ctx, id)
		start = time.Now()
	}
	err := cl.call(ctx, o, &r.res)
	if cl.rec != nil {
		cl.rec.add(span{trace: id, layer: "client", name: o.kind.String(),
			iv: interval{cl.rec.since(start), cl.rec.since(time.Now())}})
	}
	if err != nil {
		r.err = classify(err)
	}
}

func (cl *caller) call(ctx context.Context, o *op, res *result) error {
	k := cl.k
	switch o.kind {
	case opRecommend, opRecommendANN:
		c := cl.exact
		if o.kind == opRecommendANN {
			c = cl.ann
		}
		recs, err := c.Recommend(ctx, o.user, k)
		res.ids = recIDs(recs)
		return err
	case opBatch:
		out, err := cl.exact.RecommendBatch(ctx, o.users, k)
		for _, u := range out {
			res.batchUsers = append(res.batchUsers, u.User)
			res.batch = append(res.batch, recIDs(u.Recommendations))
		}
		return err
	case opSimilar:
		recs, err := cl.exact.Similar(ctx, o.item, k)
		res.ids = recIDs(recs)
		return err
	case opNearest:
		out, err := cl.exact.Nearest(ctx, client.Item(o.item), k, "")
		res.ids = neighborIDs(out.Neighbors)
		return err
	case opAnalogy:
		out, err := cl.exact.Analogy(ctx, client.Item(o.a), client.Item(o.b), client.Item(o.c), k, "")
		res.ids = neighborIDs(out.Neighbors)
		return err
	case opExplain:
		out, err := cl.exact.Explain(ctx, o.user, o.item)
		res.echo = [2]int{out.User, out.Item}
		return err
	case opIngest:
		ack, err := cl.exact.Ingest(ctx, o.events)
		res.ack = ack
		return err
	case opCompact:
		return cl.compact(ctx)
	}
	return fmt.Errorf("unknown op kind %d", o.kind)
}

// compact issues POST /v1/admin/compact, which has no typed client
// method.
func (cl *caller) compact(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+"/v1/admin/compact", nil)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("compact: status %d", resp.StatusCode)
	}
	return nil
}

func recIDs(recs []client.Recommendation) []int {
	ids := make([]int, len(recs))
	for i, r := range recs {
		ids[i] = r.Item
	}
	return ids
}

func neighborIDs(ns []client.Neighbor) []int {
	ids := make([]int, len(ns))
	for i, n := range ns {
		ids[i] = n.ID
	}
	return ids
}

// classify names an error for the per-phase failure tally.
func classify(err error) string {
	var shed *client.ErrShed
	if errors.As(err, &shed) {
		return "shed"
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return "api:" + apiErr.Code
	}
	return "transport"
}
