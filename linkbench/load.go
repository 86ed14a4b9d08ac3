package main

import (
	"math/bits"
	"sort"
	"time"
)

// The load drivers fold every message into fixed-size accumulators as it
// completes, so the benchmark's own heap does not grow with the run: a
// growing harness heap would slow the collector's pace over the run and
// move the program's tail latency with it.

// msgRecord is one message of the load, as the load driver saw it.
type msgRecord struct {
	flow, msg uint32
	at        time.Duration // since the phase began: Send's return, or the due time
	latency   time.Duration // Send duration (closed loop) or due time to ack (open loop)
	late      time.Duration // open loop: first frame sent behind the due time
	bytes     int32
	symbols   int32 // coded symbols sent, overshoot included
	stale     int32 // frames the ack wait ignored
	ok        bool
}

// subWindows splits the measured window: rates, latencies and per-message
// costs are the median over the sub-windows, so one noisy stretch of a run
// cannot move them. Rate efficiency, fairness and the delivered share pool
// the whole window.
const subWindows = 5

// windowStats accumulates one sub-window's messages.
type windowStats struct {
	attempted, ok        int
	bits, symbols, stale float64
	lat                  histogram
}

// loadStats is one load driver's view of the measured window.
type loadStats struct {
	sub             [subWindows]windowStats
	late            histogram // open loop: generator lateness
	offered, got    map[uint32]float64
	acked           msgSet // messages the load saw acknowledged
	warmup, measure time.Duration
}

func newLoadStats(measure time.Duration) *loadStats {
	return &loadStats{offered: map[uint32]float64{}, got: map[uint32]float64{}, acked: msgSet{},
		warmup: warmup, measure: measure}
}

// add folds in one message; messages outside the window only count for
// the delivery check.
func (s *loadStats) add(r msgRecord) {
	if r.ok {
		s.acked.add(r.flow, r.msg)
	}
	k := int((r.at - s.warmup) * subWindows / s.measure)
	if r.at < s.warmup || k >= subWindows {
		return
	}
	w := &s.sub[k]
	b := float64(8 * r.bytes)
	w.attempted++
	w.symbols += float64(r.symbols)
	w.stale += float64(r.stale)
	w.lat.add(r.latency)
	s.offered[r.flow] += b
	if r.ok {
		w.ok++
		w.bits += b
		s.got[r.flow] += b
	}
	s.late.add(r.late)
}

// merge folds another driver's stats into s.
func (s *loadStats) merge(o *loadStats) {
	for k := range s.sub {
		a, b := &s.sub[k], &o.sub[k]
		a.attempted += b.attempted
		a.ok += b.ok
		a.bits += b.bits
		a.symbols += b.symbols
		a.stale += b.stale
		a.lat.merge(&b.lat)
	}
	s.late.merge(&o.late)
	for f, v := range o.offered {
		s.offered[f] += v
	}
	for f, v := range o.got {
		s.got[f] += v
	}
	for f, words := range o.acked {
		b := s.acked[f]
		for len(b) < len(words) {
			b = append(b, 0)
		}
		for i, w := range words {
			b[i] |= w
		}
		s.acked[f] = b
	}
}

// total sums the sub-windows.
func (s *loadStats) total() windowStats {
	var t windowStats
	for k := range s.sub {
		w := &s.sub[k]
		t.attempted += w.attempted
		t.ok += w.ok
		t.bits += w.bits
		t.symbols += w.symbols
		t.stale += w.stale
		t.lat.merge(&w.lat)
	}
	return t
}

// fairness is Jain's index over the flows' delivered/offered bit ratios.
func (s *loadStats) fairness() float64 {
	var shares []float64
	for f, o := range s.offered {
		shares = append(shares, s.got[f]/o)
	}
	sort.Float64s(shares) // map order must not change the float sum
	return jain(shares)
}

// msgSet is a set of (flow, msg) keys as one bitset per flow: message ids
// count up from 1, so it stays small however long the run.
type msgSet map[uint32][]uint64

func (s msgSet) has(flow, msg uint32) bool {
	b := s[flow]
	return int(msg/64) < len(b) && b[msg/64]&(1<<(msg%64)) != 0
}

func (s msgSet) add(flow, msg uint32) {
	b := s[flow]
	for int(msg/64) >= len(b) {
		b = append(b, 0)
	}
	b[msg/64] |= 1 << (msg % 64)
	s[flow] = b
}

// missing returns one key of s that other lacks, if any.
func (s msgSet) missing(other msgSet) (flow, msg uint32, ok bool) {
	for f, words := range s {
		o := other[f]
		for i, w := range words {
			if i < len(o) {
				w &^= o[i]
			}
			if w != 0 {
				return f, uint32(i)*64 + uint32(bits.TrailingZeros64(w)), true
			}
		}
	}
	return 0, 0, false
}

// histogram is a log-linear histogram of durations: 64 linear buckets per
// power of two of nanoseconds, so a quantile is within 1/64 of the truth.
type histogram struct {
	counts [histSub * 48]uint32 // up to 2^47 ns
	n      uint64
}

const histSub = 64

func histBucket(ns uint64) int {
	if ns < histSub {
		return int(ns)
	}
	e := bits.Len64(ns) - 7 // ns>>e lands in [64, 128)
	return min(e*histSub+int(ns>>e), histSub*48-1)
}

// histLower is the smallest value of bucket b; histLower(b+1) bounds it.
func histLower(b int) float64 {
	if b < 2*histSub {
		return float64(b)
	}
	e := b/histSub - 1
	return float64(uint64(b-e*histSub) << e)
}

func (h *histogram) add(d time.Duration) {
	h.counts[histBucket(uint64(max(d, 0)))]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for b, c := range o.counts {
		h.counts[b] += c
	}
	h.n += o.n
}

// quantileMs returns the q-quantile in milliseconds, interpolating linearly
// inside the bucket that holds it.
func (h *histogram) quantileMs(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var seen float64
	for b, n := range h.counts {
		c := float64(n)
		if c > 0 && rank < seen+c {
			lo, hi := histLower(b), histLower(b+1)
			return (lo + (hi-lo)*(rank-seen+0.5)/c) / 1e6
		}
		seen += c
	}
	return histLower(len(h.counts)) / 1e6
}
