package engine

import (
	"fmt"
	"sync"
	"testing"

	"muppet/internal/event"
)

func TestLostLogRecordsAndCounts(t *testing.T) {
	l := NewLostLog(10)
	l.Record("U1", event.Event{Key: "a"}, LossOverflow)
	l.Record("U1", event.Event{Key: "b"}, LossMachineDown)
	if l.Total() != 2 {
		t.Fatalf("Total = %d", l.Total())
	}
	r := l.Recent()
	if len(r) != 2 || r[0].Ev.Key != "a" || r[1].Ev.Key != "b" {
		t.Fatalf("Recent = %v", r)
	}
}

func TestLostLogRotatesKeepingNewest(t *testing.T) {
	l := NewLostLog(3)
	for i := 0; i < 10; i++ {
		l.Record("U", event.Event{Key: fmt.Sprintf("k%d", i)}, LossOverflow)
	}
	if l.Total() != 10 {
		t.Fatalf("Total = %d", l.Total())
	}
	r := l.Recent()
	if len(r) != 3 {
		t.Fatalf("retained %d", len(r))
	}
	want := []string{"k7", "k8", "k9"}
	for i, w := range want {
		if r[i].Ev.Key != w {
			t.Fatalf("Recent[%d] = %s, want %s (order oldest-first)", i, r[i].Ev.Key, w)
		}
	}
}

func TestLostLogByReason(t *testing.T) {
	l := NewLostLog(10)
	l.Record("U", event.Event{}, LossOverflow)
	l.Record("U", event.Event{}, LossOverflow)
	l.Record("U", event.Event{}, LossCrashedQueue)
	by := l.ByReason()
	if by["overflow"] != 2 || by["crashed-queue"] != 1 {
		t.Fatalf("ByReason = %v", by)
	}
}

func TestLossReasonStrings(t *testing.T) {
	names := map[LossReason]string{
		LossOverflow: "overflow", LossMachineDown: "machine-down",
		LossCrashedQueue: "crashed-queue", LossNoRoute: "no-route",
		LossReason(99): "unknown",
	}
	for r, want := range names {
		if r.String() != want {
			t.Fatalf("String(%d) = %q", r, r.String())
		}
	}
}

func TestLostLogConcurrent(t *testing.T) {
	l := NewLostLog(100)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Record("U", event.Event{}, LossOverflow)
			}
		}()
	}
	wg.Wait()
	if l.Total() != 2000 {
		t.Fatalf("Total = %d", l.Total())
	}
	if len(l.Recent()) != 100 {
		t.Fatalf("retained %d", len(l.Recent()))
	}
}

func TestLostLogDefaultCapacity(t *testing.T) {
	l := NewLostLog(0)
	l.Record("U", event.Event{}, LossNoRoute)
	if len(l.Recent()) != 1 {
		t.Fatal("default-capacity log broken")
	}
}

// TestLostLogGrowsOnDemand: a fresh log holds no buffer of its
// capacity, and once full the next record still replaces the oldest.
func TestLostLogGrowsOnDemand(t *testing.T) {
	l := NewLostLog(0)
	if c := cap(l.buf); c != 0 {
		t.Fatalf("fresh log holds room for %d entries, want 0", c)
	}
	for i := 0; i <= 10_000; i++ {
		l.Record("U", event.Event{Key: fmt.Sprintf("k%d", i)}, LossOverflow)
	}
	r := l.Recent()
	if len(r) != 10_000 || r[0].Ev.Key != "k1" || r[len(r)-1].Ev.Key != "k10000" {
		t.Fatalf("retained %d entries, %s..%s; want 10000, k1..k10000", len(r), r[0].Ev.Key, r[len(r)-1].Ev.Key)
	}
}
