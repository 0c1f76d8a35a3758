package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram[time.Duration](0)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.P50 != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", s.P50)
	}
	if s.P99 != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", s.P99)
	}
	if s.Max != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", s.Max)
	}
	if got := s.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram[time.Duration](10)
	if s := h.Snapshot(); s.P50 != 0 || s.Mean() != 0 || s.Max != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReservoirBoundsMemory(t *testing.T) {
	h := NewHistogram[time.Duration](100)
	for i := 0; i < 10_000; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != 10_000 {
		t.Fatalf("Count = %d", h.Count())
	}
	h.mu.Lock()
	n := len(h.samples)
	h.mu.Unlock()
	if n != 100 {
		t.Fatalf("retained %d samples, want 100", n)
	}
	// The reservoir should still roughly reflect the distribution: the
	// median of uniform [0,10000) should land in a generous middle band.
	p50 := h.Snapshot().P50
	if p50 < 2000 || p50 > 8000 {
		t.Fatalf("reservoir p50 = %v, outside sanity band", p50)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram[time.Duration](1000)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Fatalf("Count = %d, want 2000", h.Count())
	}
}

func TestHistogramSummaryFormat(t *testing.T) {
	h := NewHistogram[time.Duration](10)
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got, want := h.Summary(), "n=2 mean=2ms p50=1ms p95=3ms p99=3ms max=3ms"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

func TestIntHistogramBasics(t *testing.T) {
	h := NewHistogram[int64](0)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 5050 || s.Max != 100 {
		t.Fatalf("count=%d sum=%d max=%d", s.Count, s.Sum, s.Max)
	}
	if s.P50 < 45 || s.P50 > 55 {
		t.Fatalf("p50 = %d", s.P50)
	}
	if got, want := h.Summary(), "n=100 mean=50 p50=50 p95=95 p99=99 max=100"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

func TestIntHistogramReservoirBounds(t *testing.T) {
	h := NewHistogram[int64](10)
	for i := int64(0); i < 10_000; i++ {
		h.Observe(7)
	}
	if h.Count() != 10_000 {
		t.Fatalf("count = %d", h.Count())
	}
	if p99 := h.Snapshot().P99; p99 != 7 {
		t.Fatalf("p99 = %d, want 7", p99)
	}
}
