package main

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/serve/api"
)

// opKind is one operation the generator issues.
type opKind uint8

const (
	opRecommend opKind = iota
	opRecommendANN
	opBatch
	opSimilar
	opNearest
	opAnalogy
	opExplain
	opIngest
	opCompact
	numOpKinds
)

var kindNames = [numOpKinds]string{
	"recommend", "recommend_ann", "batch", "similar", "nearest",
	"analogy", "explain", "ingest", "compact",
}

func (k opKind) String() string { return kindNames[k] }

func kindByName(name string) (opKind, bool) {
	for k, n := range kindNames {
		if n == name {
			return opKind(k), true
		}
	}
	return 0, false
}

// isRead reports whether an op counts toward the read latency metrics.
func (k opKind) isRead() bool { return k != opIngest && k != opCompact }

// op is one scheduled operation with the entities it touches.
type op struct {
	kind    opKind
	user    int
	item    int
	users   []int // batch
	a, b, c int   // analogy anchors (items)
	events  []api.IngestEvent
}

// buildStream derives n ops from the dataset's trace. Entities replay
// the trace records in order (wrapping), so the offered keys keep the
// org/site/data-type affinities of the trace; the op kind of each
// record is drawn from the workload mix. Similar ops redraw items
// without training interactions (those 404 by contract) from the warm
// set. Ingest ops carry held-out test-split interactions, which the
// model never trained on. The same (dataset, spec, seed) always yields
// the same stream.
func buildStream(d *dataset.Dataset, w *WorkloadSpec, n int, seed int64) []op {
	g := rng.New(seed).Split("discbench-stream")
	var kinds []opKind
	var weights []int
	total := 0
	for k := opKind(0); k < numOpKinds; k++ {
		if wt := w.Mix[k.String()]; wt > 0 {
			kinds = append(kinds, k)
			weights = append(weights, wt)
			total += wt
		}
	}
	warm := warmItems(d)
	isWarm := make(map[int]bool, len(warm))
	for _, it := range warm {
		isWarm[it] = true
	}
	recs := d.Trace.Records
	ri, ti := 0, 0
	next := func() (int, int) {
		r := recs[ri%len(recs)]
		ri++
		return r.User, r.Item
	}
	cat := d.Trace.Facility
	ops := make([]op, 0, n)
	for len(ops) < n {
		if w.CompactEvery > 0 && len(ops)%w.CompactEvery == w.CompactEvery-1 {
			ops = append(ops, op{kind: opCompact})
			continue
		}
		draw := g.Intn(total)
		kind := kinds[len(kinds)-1]
		for i, wt := range weights {
			if draw < wt {
				kind = kinds[i]
				break
			}
			draw -= wt
		}
		u, it := next()
		o := op{kind: kind, user: u, item: it}
		switch kind {
		case opSimilar:
			if !isWarm[it] {
				o.item = warm[g.Intn(len(warm))]
			}
		case opBatch:
			seen := map[int]bool{u: true}
			o.users = []int{u}
			for len(o.users) < w.BatchSize && len(seen) < d.NumUsers {
				if v, _ := next(); !seen[v] {
					seen[v] = true
					o.users = append(o.users, v)
				}
			}
			sort.Ints(o.users)
		case opAnalogy:
			_, b := next()
			_, c := next()
			o.a, o.b, o.c = it, b, c
		case opIngest:
			for len(o.events) < w.IngestSize {
				p := d.Test[ti%len(d.Test)]
				ti++
				o.events = append(o.events, api.IngestEvent{
					User: p[0], Item: p[1], DataType: cat.Items[p[1]].DataType,
				})
			}
		}
		ops = append(ops, o)
	}
	return ops
}

// warmItems lists items with at least one training interaction.
func warmItems(d *dataset.Dataset) []int {
	seen := make([]bool, d.NumItems)
	var out []int
	for _, p := range d.Train {
		if !seen[p[1]] {
			seen[p[1]] = true
			out = append(out, p[1])
		}
	}
	sort.Ints(out)
	return out
}

// streamFingerprint hashes every field of every op, so a change in the
// trace generator, the dataset split or the mix that shifts the offered
// inputs changes the fingerprint.
func streamFingerprint(ops []op) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, o := range ops {
		put(int(o.kind))
		put(o.user)
		put(o.item)
		put(len(o.users))
		for _, u := range o.users {
			put(u)
		}
		put(o.a)
		put(o.b)
		put(o.c)
		put(len(o.events))
		for _, e := range o.events {
			put(e.User)
			put(e.Item)
			put(e.DataType)
		}
	}
	return h.Sum64()
}

// poissonSchedule draws due offsets (ns from phase start) of a Poisson
// arrival process at rate per second until dur has elapsed.
func poissonSchedule(g *rng.RNG, rate float64, dur time.Duration) []int64 {
	var due []int64
	t := 0.0
	for {
		t += g.ExpFloat64() / rate
		ns := int64(t * 1e9)
		if ns >= int64(dur) {
			return due
		}
		due = append(due, ns)
	}
}
