// Package metrics provides the one histogram behind every percentile
// the engine reports (Section 5's latency figures): update, query,
// outbox-wait, flush, failover and rejoin latencies, flush batch sizes
// and the tracer's stage spans. internal/obs exports each as a summary.
package metrics

import (
	"fmt"
	"math"
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

// Count reports the number of observations.
func (h *Histogram[T]) Count() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Snapshot is a consistent point-in-time view of a histogram: every
// field is read (and the quantiles computed) under a single lock
// acquisition, so exporters get mutually consistent
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
func (h *Histogram[T]) Snapshot() Snapshot[T] {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := Snapshot[T]{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if len(h.samples) == 0 {
		return s
	}
	sorted := slices.Clone(h.samples)
	slices.Sort(sorted)
	s.P50 = quantileOf(sorted, 0.50)
	s.P90 = quantileOf(sorted, 0.90)
	s.P95 = quantileOf(sorted, 0.95)
	s.P99 = quantileOf(sorted, 0.99)
	return s
}

// Summary renders count/mean/p50/p95/p99/max of one snapshot on one
// line.
func (h *Histogram[T]) Summary() string {
	s := h.Snapshot()
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean(), s.P50, s.P95, s.P99, s.Max)
}

// quantileOf reports the q-quantile of an already sorted sample set.
func quantileOf[T ~int64](sorted []T, q float64) T {
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
