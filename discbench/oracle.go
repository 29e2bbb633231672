package main

import (
	"math"
	"sort"

	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/serve"
)

// oracle computes the reference answers the served ones must match.
// It reads only the trained model and the dataset, through the same
// public primitives the paper's evaluation uses (ScoreItems, MaskTrain,
// TopK), so a serving-side change cannot move the reference with it.
//
//   - exact recommend and batch: ScoreItems + MaskTrain + top-K, score
//     descending then item ID ascending; IDs and order must match.
//   - similar: the same probe users the server picks (up to
//     serve.DefaultMaxProbes training users of the item, spread by a
//     rotation seeded by the item ID), their raw score vectors summed,
//     the item itself excluded; IDs and order must match.
//   - ann recommend, query:nearest, query:analogy: recall of the
//     answer against the exact reference, gated on the mean.
type oracle struct {
	d           *dataset.Dataset
	m           eval.VectorScorer
	k           int
	gate        float64
	usersByItem [][]int

	rec map[int][]int
	sim map[int][]int
	buf []float64
}

func newOracle(d *dataset.Dataset, m eval.VectorScorer, k int, gate float64) *oracle {
	o := &oracle{d: d, m: m, k: k, gate: gate, rec: map[int][]int{}, sim: map[int][]int{},
		buf: make([]float64, d.NumItems)}
	o.usersByItem = make([][]int, d.NumItems)
	for _, p := range d.Train {
		o.usersByItem[p[1]] = append(o.usersByItem[p[1]], p[0])
	}
	return o
}

// recommend is the exact top-k for user.
func (o *oracle) recommend(user int) []int {
	if ids, ok := o.rec[user]; ok {
		return ids
	}
	o.m.ScoreItems(user, o.buf)
	eval.MaskTrain(o.d, user, o.buf)
	ids := eval.TopK(o.buf, o.k)
	o.rec[user] = ids
	return ids
}

// probes mirrors the server's probe-user selection for /v1/similar.
func (o *oracle) probes(item int) []int {
	m := o.usersByItem[item]
	n := serve.DefaultMaxProbes
	if len(m) <= n {
		return m
	}
	out := make([]int, n)
	start := item % len(m)
	for j := range out {
		out[j] = m[(start+j*len(m)/n)%len(m)]
	}
	return out
}

// similar is the exact top-k of items co-scored across item's probes.
func (o *oracle) similar(item int) []int {
	if ids, ok := o.sim[item]; ok {
		return ids
	}
	agg := make([]float64, o.d.NumItems)
	for _, p := range o.probes(item) {
		o.m.ScoreItems(p, o.buf)
		for i, s := range o.buf {
			agg[i] += s
		}
	}
	agg[item] = math.Inf(-1)
	ids := eval.TopK(agg, o.k)
	o.sim[item] = ids
	return ids
}

// nearestItems is the exhaustive top-k of items by inner product with
// qv, skipping the anchors; ties go to the smaller ID.
func (o *oracle) nearestItems(qv []float64, skip ...int) []int {
	type cand struct {
		id    int
		score float64
	}
	cands := make([]cand, 0, o.d.NumItems)
next:
	for i := 0; i < o.m.NumItems(); i++ {
		for _, s := range skip {
			if i == s {
				continue next
			}
		}
		v := o.m.ItemVector(i)
		var s float64
		for j := range qv {
			s += qv[j] * v[j]
		}
		cands = append(cands, cand{i, s})
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].score != cands[b].score {
			return cands[a].score > cands[b].score
		}
		return cands[a].id < cands[b].id
	})
	if len(cands) > o.k {
		cands = cands[:o.k]
	}
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.id
	}
	return ids
}

func (o *oracle) nearest(item int) []int {
	return o.nearestItems(o.m.ItemVector(item), item)
}

func (o *oracle) analogy(a, b, c int) []int {
	va, vb, vc := o.m.ItemVector(a), o.m.ItemVector(b), o.m.ItemVector(c)
	qv := make([]float64, len(va))
	for j := range qv {
		qv[j] = va[j] - vb[j] + vc[j]
	}
	return o.nearestItems(qv, a, b, c)
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verdict tallies the oracle's findings over a set of records.
type verdict struct {
	wrong       int
	annAnswers  int
	annRecall   float64 // sum of per-answer recall
	annBelow    int     // ann answers with recall under the gate
	wrongByKind map[string]int
}

func (v *verdict) meanRecall() float64 {
	if v.annAnswers == 0 {
		return 1
	}
	return v.annRecall / float64(v.annAnswers)
}

// check compares every successful read in recs with the reference.
// Exact answers that differ are wrong outright; ann answers are wrong
// only when the mean recall over the whole run misses the gate, which
// the caller decides once all phases are in.
func (o *oracle) check(ops []op, recs []opRec, v *verdict) {
	if v.wrongByKind == nil {
		v.wrongByKind = map[string]int{}
	}
	bad := func(r *opRec) {
		v.wrong++
		v.wrongByKind[r.kind.String()]++
	}
	ann := func(ref, got []int) {
		v.annAnswers++
		rc := eval.Overlap(ref, got)
		v.annRecall += rc
		if rc < o.gate {
			v.annBelow++
		}
	}
	for i := range recs {
		r := &recs[i]
		if r.failed() {
			continue
		}
		o2 := &ops[r.idx]
		switch r.kind {
		case opRecommend:
			if !sameIDs(o.recommend(o2.user), r.res.ids) {
				bad(r)
			}
		case opRecommendANN:
			ann(o.recommend(o2.user), r.res.ids)
		case opBatch:
			if !sameIDs(r.res.batchUsers, o2.users) {
				bad(r)
				continue
			}
			for j, u := range o2.users {
				if !sameIDs(o.recommend(u), r.res.batch[j]) {
					bad(r)
					break
				}
			}
		case opSimilar:
			if !sameIDs(o.similar(o2.item), r.res.ids) {
				bad(r)
			}
		case opNearest:
			ann(o.nearest(o2.item), r.res.ids)
		case opAnalogy:
			ann(o.analogy(o2.a, o2.b, o2.c), r.res.ids)
		case opExplain:
			if r.res.echo != [2]int{o2.user, o2.item} {
				bad(r)
			}
		case opIngest:
			if r.res.ack.Events != len(o2.events) {
				bad(r)
			}
		}
	}
}
