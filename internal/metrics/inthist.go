package metrics

// IntHistogram records integer-valued samples (batch sizes, queue
// depths) and reports percentiles over a bounded reservoir (see
// reservoir.go, shared with Histogram). It is safe for concurrent use.
type IntHistogram struct {
	r reservoir[int64]
}

// NewIntHistogram returns a histogram keeping at most capSamples raw
// samples (default 100k if capSamples <= 0).
func NewIntHistogram(capSamples int) *IntHistogram {
	return &IntHistogram{r: newReservoir[int64](capSamples)}
}

// Observe records one sample.
func (h *IntHistogram) Observe(v int64) { h.r.observe(v) }

// Count reports the number of observations.
func (h *IntHistogram) Count() uint64 { return h.r.observations() }

// Sum reports the total of all observations.
func (h *IntHistogram) Sum() int64 {
	_, sum := h.r.snapshot()
	return sum
}

// Mean reports the average of all observations, computed from one
// consistent snapshot (see Snapshot).
func (h *IntHistogram) Mean() float64 {
	s := h.Snapshot()
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot captures count/sum/min/max and the p50/p90/p95/p99
// quantiles in one consistent read (a single lock acquisition), so
// exporters do not take N racy reads per scrape.
func (h *IntHistogram) Snapshot() Snapshot[int64] {
	return h.r.snapshotAll()
}

// Max reports the largest observation.
func (h *IntHistogram) Max() int64 { return h.r.maximum() }

// Quantile reports the q-quantile (0 <= q <= 1) over the retained
// samples.
func (h *IntHistogram) Quantile(q float64) int64 { return h.r.quantile(q) }
