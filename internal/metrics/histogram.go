// Package metrics provides the one histogram behind every percentile
// the engine reports (Section 5's latency figures): update, query,
// outbox-wait, flush, failover and rejoin latencies, flush batch sizes
// and the tracer's stage spans. internal/obs exports each as a summary.
package metrics

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// Histogram records samples of an integer-valued type — a
// time.Duration or a plain count — and reports percentiles over a
// bounded reservoir: exact samples up to a cap, then reservoir
// sampling, which bounds memory while staying accurate enough for the
// experiments. It is safe for concurrent use.
type Histogram[T ~int64] struct {
	mu      sync.Mutex
	samples []T
	count   uint64
	sum     T
	min     T
	max     T
	cap     int
	rngSeed uint64
}

// NewHistogram returns a histogram keeping at most capSamples raw
// samples (default 100k if capSamples <= 0).
func NewHistogram[T ~int64](capSamples int) *Histogram[T] {
	if capSamples <= 0 {
		capSamples = 100_000
	}
	return &Histogram[T]{cap: capSamples, rngSeed: 0x9E3779B97F4A7C15}
}

// Observe records one sample.
func (h *Histogram[T]) Observe(v T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, v)
		return
	}
	// Reservoir sampling: replace a random slot with probability cap/count.
	h.rngSeed = h.rngSeed*6364136223846793005 + 1442695040888963407
	slot := h.rngSeed % h.count
	if slot < uint64(h.cap) {
		h.samples[slot] = v
	}
}

// Snapshot is a consistent point-in-time view of a histogram: every
// field is read under a single lock acquisition (one per shard of
// Shards), so exporters get mutually consistent
// count/sum/min/max/percentiles instead of N racy reads per scrape.
// Quantiles are over the retained samples.
type Snapshot[T ~int64] struct {
	Count              uint64
	Sum, Min, Max      T
	P50, P90, P95, P99 T
}

// Mean reports Sum/Count (zero when empty), consistent by construction
// with the snapshot it was taken from.
func (s Snapshot[T]) Mean() T {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / T(s.Count)
}

// Snapshot captures the full snapshot under one lock.
func (h *Histogram[T]) Snapshot() Snapshot[T] { return Shards[T]{h}.Snapshot() }

// Shards is one histogram split into shards, one per writer — each of
// an engine's consuming loops observes into its own — so writers share
// no lock. A read merges them: Count, Sum, Min and Max are exact, and
// each quantile weighs a shard's retained samples by the observations
// they stand for (a shard short of its cap keeps every one, at weight 1).
type Shards[T ~int64] []*Histogram[T]

// NewShards returns n shards whose reservoir caps sum to a default
// histogram's 100k, at least one sample each.
func NewShards[T ~int64](n int) Shards[T] {
	s := make(Shards[T], n)
	for i := range s {
		s[i] = NewHistogram[T](max(100_000/n, 1))
	}
	return s
}

// weighted is one retained sample and the observations it stands for.
type weighted[T ~int64] struct {
	v T
	w float64
}

// Snapshot merges the shards, each read under its own lock.
func (s Shards[T]) Snapshot() Snapshot[T] {
	var out Snapshot[T]
	var all []weighted[T]
	for _, h := range s {
		h.mu.Lock()
		if h.count > 0 {
			if out.Count == 0 {
				out.Min, out.Max = h.min, h.max
			}
			out.Min, out.Max = min(out.Min, h.min), max(out.Max, h.max)
			out.Count, out.Sum = out.Count+h.count, out.Sum+h.sum
			w := float64(h.count) / float64(len(h.samples))
			for _, v := range h.samples {
				all = append(all, weighted[T]{v, w})
			}
		}
		h.mu.Unlock()
	}
	slices.SortFunc(all, func(a, b weighted[T]) int { return cmp.Compare(a.v, b.v) })
	n := float64(out.Count) // the weights' sum
	out.P50, out.P90 = quantileOf(all, 0.50*n), quantileOf(all, 0.90*n)
	out.P95, out.P99 = quantileOf(all, 0.95*n), quantileOf(all, 0.99*n)
	return out
}

// String renders count/mean/p50/p95/p99/max on one line.
func (s Snapshot[T]) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean(), s.P50, s.P95, s.P99, s.Max)
}

// quantileOf reports the first of samples sorted by value whose
// cumulative weight reaches target, q times the weights' sum for the
// q-quantile (the last if rounding leaves the sum short, 0 if none).
// With every weight 1 that is sample ceil(q·n)-1 of n.
func quantileOf[T ~int64](sorted []weighted[T], target float64) (v T) {
	cum := 0.0
	for _, x := range sorted {
		if v, cum = x.v, cum+x.w; cum >= target {
			break
		}
	}
	return v
}
