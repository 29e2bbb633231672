package main

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// The plain run's measured part is a series of rounds, each one
// fixed-rate window followed by one saturation window, repeated until
// the deadline. Every reported figure is a median over rounds, so a
// short stall touches only a few of them.
//
// A fixed-rate window offers about windowReads reads on a Poisson
// schedule at the workload's fixed rate. Latency is from the due time.
//
// A saturation window makes satOps ops due at once, so the connections
// run back to back (closed loop) and the scheduler, which releases
// every op before the first answer arrives, is never the limit. Its
// throughput is the ops completed over the time to the last answer. It
// passes only if nothing failed and its service-time p99 (from the
// moment a connection took the op to the answer) is within the spec's
// SLO limit; a window that does not pass counts as 0.
//
// A round is valid when its fixed-rate window's generator lag p99 is
// within the spec's window bound. The window runs far below capacity,
// so a lag tail beyond the timer granularity means the machine stalled
// the whole process, and the saturation window that follows is measured
// in the same stall. The figures come from the valid rounds:
//
//	p50_ms, p99_ms  median of the fixed-rate windows' read p50s, p99s
//	cpu_us_per_op   their CPU time over their completed ops
//	capacity_rps    median of the saturation windows' throughputs: the
//	                highest rate the connections sustain within the SLO
//
// With fewer than minRounds valid rounds, the minRounds rounds with the
// lowest lag are used and the run says so. rss_mb's serving part is the
// median of every fixed-rate window's resident high-water mark.

const (
	windowReads = 800  // reads per fixed-rate window
	satOps      = 4000 // ops per saturation window
	minRounds   = 3    // rounds the figures come from, at least
)

// round is what one fixed-rate window and the saturation window after
// it leave once their records are consumed.
type round struct {
	reads     []float64 // read latencies of the fixed-rate window, ms
	ingest    []float64 // its ingest ack latencies, ms
	completed int       // its completed ops
	cpuNS     int64     // its CPU time
	lagP99    float64   // its generator lag p99, ms
	rssMB     float64   // its resident high-water mark
	satRPS    float64   // throughput of the saturation window, 0 if it failed
}

// fixedResult is the plain run's measurement.
type fixedResult struct {
	first      []opRec // the first fixed-rate window, for the routed byte-equality sample
	p50, p99   float64
	cpuUSPerOp float64
	capacity   float64
	ingestMS   []float64
	rssMB      float64 // median resident high-water mark of the fixed-rate windows
}

// measure runs rounds until deadline, at least one.
func (b *bench) measure(ctx context.Context, cl *caller, deadline time.Time) fixedResult {
	reads, total := 0, 0
	for name, wt := range b.w.Mix {
		total += wt
		if k, _ := kindByName(name); k.isRead() {
			reads += wt
		}
	}
	rate := b.w.FixedRPS
	dur := time.Duration(windowReads / (rate * float64(reads) / float64(total)) * float64(time.Second))
	var rounds []round
	var first []opRec
	for len(rounds) == 0 || time.Now().Before(deadline) {
		r, fixed := b.round(ctx, cl, len(rounds)+1, rate, dur)
		rounds = append(rounds, r)
		if first == nil {
			first = fixed
		}
	}
	res := b.summarizeRounds(rounds)
	res.first = first
	return res
}

// round measures one fixed-rate and one saturation window, consumes
// their records and returns the round with the fixed-rate records.
func (b *bench) round(ctx context.Context, cl *caller, n int, rate float64, dur time.Duration) (round, []opRec) {
	var r round
	name := fmt.Sprintf("fixed%d", n)
	// Saturation grows the heap as far as GC pacing lets it; the memory
	// a user sees is the fixed-rate one, so each window starts from the
	// live heap and reads its own high-water mark.
	resetPeakRSS()
	c0 := cpuNS()
	fixed := b.phase(ctx, cl, name, rate, b.schedule(name, rate, dur))
	r.cpuNS = cpuNS() - c0
	r.rssMB = peakRSSMB()
	b.consume(fixed)
	r.reads, r.ingest, r.completed = readLatencies(fixed), ingestLatencies(fixed), completed(fixed)
	s := &b.phases[len(b.phases)-1]
	r.lagP99 = s.lagP99
	s.status = "VALID"
	if r.lagP99 > b.spec.WindowLagP99MaxMS {
		s.status = "INVALID (generator lag)"
	}

	name = fmt.Sprintf("sat%d", n)
	sat := b.phase(ctx, cl, name, 0, make([]int64, satOps))
	b.consume(sat)
	x, service := saturation(sat)
	s = &b.phases[len(b.phases)-1]
	s.rate = x
	switch {
	case s.failed > 0:
		s.status = "FAIL (failed ops)"
		x = 0
	case service > b.spec.SLOP99MS:
		s.status = fmt.Sprintf("FAIL (service p99 %.3fms)", service)
		x = 0
	default:
		s.status = fmt.Sprintf("PASS (service p99 %.3fms)", service)
	}
	r.satRPS = x
	return r, fixed
}

// saturation returns a closed-loop window's throughput (ops per second
// of wall time to the last answer) and its service-time p99 in ms,
// failures as +Inf.
func saturation(recs []opRec) (rps, serviceP99 float64) {
	var last int64
	service := make([]float64, len(recs))
	for i := range recs {
		r := &recs[i]
		if r.done > last {
			last = r.done
		}
		service[i] = nsToMS(r.done - r.pick)
		if r.failed() {
			service[i] = posInf
		}
	}
	if last <= 0 {
		return 0, posInf
	}
	return float64(completed(recs)) / (float64(last) / 1e9), percentile(service, 0.99)
}

// usedRounds returns the valid rounds, or the minRounds rounds with
// the lowest lag when fewer are valid.
func usedRounds(rounds []round, lagBound float64) (use []round, valid int) {
	for _, r := range rounds {
		if r.lagP99 <= lagBound {
			use = append(use, r)
		}
	}
	valid = len(use)
	if valid >= minRounds || valid == len(rounds) {
		return use, valid
	}
	use = append([]round(nil), rounds...)
	sort.SliceStable(use, func(i, j int) bool { return use[i].lagP99 < use[j].lagP99 })
	return use[:min(minRounds, len(use))], valid
}

func (b *bench) summarizeRounds(rounds []round) fixedResult {
	var res fixedResult
	var rss []float64
	for _, r := range rounds {
		rss = append(rss, r.rssMB)
	}
	use, valid := usedRounds(rounds, b.spec.WindowLagP99MaxMS)
	if valid < len(use) {
		b.notes = append(b.notes, fmt.Sprintf("only %d of %d rounds free of generator lag; the figures use the %d with the lowest lag", valid, len(rounds), len(use)))
	}
	var p50s, p99s, caps []float64
	var cpu int64
	ops := 0
	for _, r := range use {
		p50s = append(p50s, percentile(r.reads, 0.5))
		p99s = append(p99s, percentile(r.reads, 0.99))
		caps = append(caps, r.satRPS)
		cpu += r.cpuNS
		ops += r.completed
		res.ingestMS = append(res.ingestMS, r.ingest...)
	}
	res.p50, res.p99, res.capacity, res.rssMB = median(p50s), median(p99s), median(caps), median(rss)
	res.cpuUSPerOp = nsToUS(cpu) / float64(max(ops, 1))
	fmt.Printf("rounds measured=%d valid=%d used=%d fixed_rss_mb=%.1f\n", len(rounds), valid, len(use), res.rssMB)
	return res
}
