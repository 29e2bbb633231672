package main

import (
	"math"
	"sort"
)

// Order statistics and span arithmetic. Everything here is pure so the
// benchmark's own tests can pin it: a percentile that silently dropped
// failures, or a self time that double-counted overlapping children,
// would move every reported number.

var posInf = math.Inf(1)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs.
// +Inf entries (failed, shed or degraded operations) sort last and are
// counted like any other sample, so failures push the tail up instead
// of vanishing from it. An empty input yields NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}

// median is the 0.5 nearest-rank percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// interval is a closed-open time span [start, end) in nanoseconds on
// one monotonic clock.
type interval struct{ start, end int64 }

func (iv interval) dur() int64 { return iv.end - iv.start }

// selfTime is parent's duration minus the part of it that children
// cover. Children are clipped to the parent, and overlapping children
// (the concurrent legs of a batch fan-out) count their union once.
func selfTime(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var covered int64
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.dur()
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.dur()
	}
	return parent.dur() - covered
}

// perKop scales a count to "per thousand operations".
func perKop(count, ops float64) float64 {
	if ops <= 0 {
		return 0
	}
	return count * 1000 / ops
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// nsToMS and nsToUS convert nanosecond counts.
func nsToMS(ns int64) float64 { return float64(ns) / 1e6 }
func nsToUS(ns int64) float64 { return float64(ns) / 1e3 }
