package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/event"
)

func TestTrackerWaitReturnsAtZero(t *testing.T) {
	tr := NewTracker()
	tr.Inc()
	tr.Inc()
	done := make(chan struct{})
	go func() {
		tr.Wait()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Wait returned with 2 in flight")
	case <-time.After(10 * time.Millisecond):
	}
	tr.Dec()
	tr.Dec()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait never returned")
	}
	if tr.InFlight() != 0 {
		t.Fatalf("InFlight = %d", tr.InFlight())
	}
}

func TestTrackerWaitImmediateWhenIdle(t *testing.T) {
	tr := NewTracker()
	done := make(chan struct{})
	go func() {
		tr.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Wait blocked on idle tracker")
	}
}

// TestTrackerConcurrent: Inc/Dec pairs and Add(±n) batches from many
// goroutines, with waiters parked throughout. A waiter returns only
// once every goroutine has retired what it registered (the hold below
// keeps the count above zero until then), and every waiter returns.
func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	tr.Inc() // the hold: released once every worker is done
	var workers, waiters sync.WaitGroup
	var finished atomic.Int32
	const goroutines = 8
	for i := 0; i < 4; i++ {
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			tr.Wait()
			if n := finished.Load(); n != goroutines {
				t.Errorf("Wait returned with %d of %d workers done", n, goroutines)
			}
		}()
	}
	for i := 0; i < goroutines; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			defer finished.Add(1)
			for j := 0; j < 1000; j++ {
				if j%2 == 0 {
					tr.Inc()
					tr.Dec()
					continue
				}
				n := 1 + (i+j)%64
				tr.Add(n)
				tr.Add(-n / 2)
				for k := 0; k < n-n/2; k++ {
					tr.Dec()
				}
			}
		}(i)
	}
	workers.Wait()
	tr.Dec()
	waiters.Wait()
	tr.Wait()
	if tr.InFlight() != 0 {
		t.Fatalf("InFlight = %d", tr.InFlight())
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := NewCounters()
	c.Ingested.Add(3)
	c.Processed.Add(2)
	c.LostOverflow.Add(1)
	s := c.Snapshot()
	if s.Ingested != 3 || s.Processed != 2 || s.LostOverflow != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestObserveContentionKeepsMax(t *testing.T) {
	c := NewCounters()
	c.ObserveContention(1)
	c.ObserveContention(2)
	c.ObserveContention(1)
	if got := c.MaxContention.Load(); got != 2 {
		t.Fatalf("MaxContention = %d, want 2", got)
	}
}

func TestObserveLatency(t *testing.T) {
	c := NewCounters()
	ObserveLatency(c.Latency[0], &event.Event{Ingress: time.Now().Add(-time.Millisecond).UnixNano()})
	ObserveLatency(c.Latency[0], &event.Event{}) // Ingress zero: ignored
	if n := c.Latency.Snapshot().Count; n != 1 {
		t.Fatalf("latency samples = %d, want 1", n)
	}
	if max := c.Latency.Snapshot().Max; max < time.Millisecond {
		t.Fatalf("latency %v implausibly small", max)
	}
}

// TestSinkRecordsPerStream: Record fans an event out to its own
// stream's listeners only, and a stream nobody listens to leaves no
// state behind.
func TestSinkRecordsPerStream(t *testing.T) {
	s := NewSink()
	s4, s5 := s.Subscribe("S4", 4), s.Subscribe("S5", 4)
	s.Record(event.Event{Stream: "S4", Key: "a"})
	s.Record(event.Event{Stream: "S4", Key: "b"})
	s.Record(event.Event{Stream: "S5", Key: "c"})
	s.Record(event.Event{Stream: "S6", Key: "d"})
	if len(s4.C()) != 2 || len(s5.C()) != 1 {
		t.Fatalf("S4 got %d, S5 got %d; want 2 and 1", len(s4.C()), len(s5.C()))
	}
	if a, b := <-s4.C(), <-s4.C(); a.Key != "a" || b.Key != "b" {
		t.Fatalf("S4 events = %s, %s", a.Key, b.Key)
	}
	if _, ok := s.streams["S6"]; ok || len(s.streams) != 2 {
		t.Fatalf("streams = %v, want state for S4 and S5 only", s.streams)
	}
}
