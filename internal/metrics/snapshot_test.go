package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestHistogramSnapshot(t *testing.T) {
	h := NewHistogram[time.Duration](0)
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("Count = %d, want 100", s.Count)
	}
	if want := 5050 * time.Millisecond; s.Sum != want {
		t.Errorf("Sum = %v, want %v", s.Sum, want)
	}
	if s.Min != time.Millisecond {
		t.Errorf("Min = %v, want 1ms", s.Min)
	}
	if s.Max != 100*time.Millisecond {
		t.Errorf("Max = %v, want 100ms", s.Max)
	}
	if s.P50 < 45*time.Millisecond || s.P50 > 55*time.Millisecond {
		t.Errorf("P50 = %v, want ~50ms", s.P50)
	}
	if s.P99 < 95*time.Millisecond || s.P99 > 100*time.Millisecond {
		t.Errorf("P99 = %v, want ~99ms", s.P99)
	}
	if s.P90 > s.P95 || s.P95 > s.P99 {
		t.Errorf("quantiles not monotone: p90=%v p95=%v p99=%v", s.P90, s.P95, s.P99)
	}
	if got, want := s.Mean(), 5050*time.Millisecond/100; got != want {
		t.Errorf("Snapshot Mean = %v, want %v", got, want)
	}
}

func TestHistogramSnapshotEmpty(t *testing.T) {
	h := NewHistogram[time.Duration](8)
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Min != 0 || s.Max != 0 || s.P99 != 0 {
		t.Fatalf("empty snapshot not zero: %+v", s)
	}
	if s.Mean() != 0 {
		t.Fatalf("empty Mean = %v, want 0", s.Mean())
	}
}

func TestIntHistogramSnapshot(t *testing.T) {
	h := NewHistogram[int64](0)
	for i := int64(1); i <= 10; i++ {
		h.Observe(i * 10)
	}
	s := h.Snapshot()
	if s.Count != 10 || s.Sum != 550 || s.Min != 10 || s.Max != 100 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean() != 55 {
		t.Errorf("Mean = %d, want 55", s.Mean())
	}
}

// TestHistogramSnapshotConsistent exercises the one-lock guarantee:
// a snapshot taken mid-stream must be internally consistent — its sum
// can never exceed count * max.
func TestHistogramSnapshotConsistent(t *testing.T) {
	h := NewHistogram[time.Duration](1024)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(time.Duration(i%100+1) * time.Millisecond)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if s.Min > s.Max {
			t.Fatalf("min %v > max %v", s.Min, s.Max)
		}
		if s.Sum > time.Duration(s.Count)*s.Max {
			t.Fatalf("sum %v exceeds count %d * max %v", s.Sum, s.Count, s.Max)
		}
		if s.Sum < time.Duration(s.Count)*s.Min {
			t.Fatalf("sum %v below count %d * min %v", s.Sum, s.Count, s.Min)
		}
	}
	close(stop)
	wg.Wait()
}
