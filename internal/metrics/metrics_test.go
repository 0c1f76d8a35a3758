package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("Value = %d, want 8000", c.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(0)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Quantile(0.50); got != 50*time.Millisecond {
		t.Fatalf("p50 = %v, want 50ms", got)
	}
	if got := h.Quantile(0.99); got != 99*time.Millisecond {
		t.Fatalf("p99 = %v, want 99ms", got)
	}
	if got := h.Quantile(1.0); got != 100*time.Millisecond {
		t.Fatalf("p100 = %v, want 100ms", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Fatalf("max = %v, want 100ms", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Fatalf("mean = %v, want 50.5ms", got)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Max() != 0 || h.Count() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReservoirBoundsMemory(t *testing.T) {
	h := NewHistogram(100)
	for i := 0; i < 10_000; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Count() != 10_000 {
		t.Fatalf("Count = %d", h.Count())
	}
	h.r.mu.Lock()
	n := len(h.r.samples)
	h.r.mu.Unlock()
	if n != 100 {
		t.Fatalf("retained %d samples, want 100", n)
	}
	// The reservoir should still roughly reflect the distribution: the
	// median of uniform [0,10000) should land in a generous middle band.
	p50 := h.Quantile(0.5)
	if p50 < 2000 || p50 > 8000 {
		t.Fatalf("reservoir p50 = %v, outside sanity band", p50)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(1000)
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
	h := NewHistogram(10)
	h.Observe(time.Millisecond)
	s := h.Summary()
	if len(s) == 0 || s[0] != 'n' {
		t.Fatalf("unexpected summary %q", s)
	}
}
