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
	if s := h.Snapshot(); s.P50 != 0 || s.Mean() != 0 || s.Max != 0 || h.Snapshot().Count != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramReservoirBoundsMemory(t *testing.T) {
	h := NewHistogram[time.Duration](100)
	for i := 0; i < 10_000; i++ {
		h.Observe(time.Duration(i))
	}
	if h.Snapshot().Count != 10_000 {
		t.Fatalf("Count = %d", h.Snapshot().Count)
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
	if h.Snapshot().Count != 2000 {
		t.Fatalf("Count = %d, want 2000", h.Snapshot().Count)
	}
}

func TestHistogramSummaryFormat(t *testing.T) {
	h := NewHistogram[time.Duration](10)
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	if got, want := h.Snapshot().String(), "n=2 mean=2ms p50=1ms p95=3ms p99=3ms max=3ms"; got != want {
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
	if got, want := h.Snapshot().String(), "n=100 mean=50 p50=50 p95=95 p99=99 max=100"; got != want {
		t.Fatalf("summary = %q, want %q", got, want)
	}
}

func TestIntHistogramReservoirBounds(t *testing.T) {
	h := NewHistogram[int64](10)
	for i := int64(0); i < 10_000; i++ {
		h.Observe(7)
	}
	if h.Snapshot().Count != 10_000 {
		t.Fatalf("count = %d", h.Snapshot().Count)
	}
	if p99 := h.Snapshot().P99; p99 != 7 {
		t.Fatalf("p99 = %d, want 7", p99)
	}
}

// TestShardsMergeLikeOneHistogram: shards fed fewer values than their
// caps — unevenly, one left empty — report the Count, Sum, Min, Max and
// quantiles of one histogram fed the same values.
func TestShardsMergeLikeOneHistogram(t *testing.T) {
	one := NewHistogram[int64](0)
	shards := NewShards[int64](5)
	if c := shards[0].cap; c != 20_000 {
		t.Fatalf("shard cap = %d, want 20000 (caps sum to 100k)", c)
	}
	seed := uint64(7)
	for i := 0; i < 9_000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		v := int64(seed>>40) - 1<<23
		one.Observe(v)
		shards[(seed>>7)%4].Observe(v) // shard 4 stays empty
	}
	if got, want := shards.Snapshot(), one.Snapshot(); got != want {
		t.Fatalf("merged shards = %+v, one histogram = %+v", got, want)
	}
	if s := NewShards[int64](3).Snapshot(); s != (Snapshot[int64]{}) {
		t.Fatalf("empty shards = %+v, want zeros", s)
	}
}

// TestShardsWeighFullReservoirs: a shard whose reservoir is full stands
// for more observations than it keeps; the merged quantiles weigh its
// samples by that, so a busy shard is not outvoted by a quiet one.
func TestShardsWeighFullReservoirs(t *testing.T) {
	shards := Shards[int64]{NewHistogram[int64](100), NewHistogram[int64](100)}
	for i := 0; i < 10_000; i++ {
		shards[0].Observe(10) // 10,000 observations, 100 kept
	}
	for i := 0; i < 150; i++ {
		shards[1].Observe(1_000) // 150 observations, 100 kept
	}
	s := shards.Snapshot()
	if s.Count != 10_150 || s.Min != 10 || s.Max != 1_000 || s.Sum != 250_000 {
		t.Fatalf("snapshot = %+v", s)
	}
	// Unweighted, the kept samples are half 10s and half 1,000s.
	if s.P50 != 10 || s.P90 != 10 || s.P95 != 10 || s.P99 != 1_000 {
		t.Fatalf("p50/p90/p95/p99 = %d/%d/%d/%d, want 10/10/10/1000", s.P50, s.P90, s.P95, s.P99)
	}
}
