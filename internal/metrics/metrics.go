// Package metrics provides the counters, throughput meters, and latency
// histograms the benchmark harness uses to reproduce the paper's
// operational claims (Section 5): sustained events/second and
// end-to-end latency percentiles.
package metrics

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Histogram records duration samples and reports percentiles over a
// bounded reservoir (see reservoir.go). It is safe for concurrent use.
type Histogram struct {
	r reservoir[time.Duration]
}

// NewHistogram returns a histogram keeping at most capSamples raw
// samples (default 100k if capSamples <= 0).
func NewHistogram(capSamples int) *Histogram {
	return &Histogram{r: newReservoir[time.Duration](capSamples)}
}

// Observe records one sample.
func (h *Histogram) Observe(d time.Duration) { h.r.observe(d) }

// Count reports the number of observations.
func (h *Histogram) Count() uint64 { return h.r.observations() }

// Mean reports the average of all observations, computed from one
// consistent snapshot (see Snapshot).
func (h *Histogram) Mean() time.Duration {
	return h.Snapshot().Mean()
}

// Snapshot captures count/sum/min/max and the p50/p90/p95/p99
// quantiles in one consistent read (a single lock acquisition), so
// exporters do not take N racy reads per scrape.
func (h *Histogram) Snapshot() Snapshot[time.Duration] {
	return h.r.snapshotAll()
}

// Max reports the largest observation.
func (h *Histogram) Max() time.Duration { return h.r.maximum() }

// Quantile reports the q-quantile (0 <= q <= 1) over the retained
// samples.
func (h *Histogram) Quantile(q float64) time.Duration { return h.r.quantile(q) }

// Summary renders count/mean/p50/p95/p99/max on one line.
func (h *Histogram) Summary() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}
