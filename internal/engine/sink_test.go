package engine

import (
	"fmt"
	"testing"
	"time"

	"muppet/internal/event"
)

func sev(stream, key string) event.Event {
	return event.Event{Stream: stream, Key: key}
}

func TestSinkBoundedRingKeepsNewest(t *testing.T) {
	s := NewSink(3)
	for i := 0; i < 5; i++ {
		s.Record(sev("S", fmt.Sprintf("k%d", i)))
	}
	evs := s.Events("S")
	if len(evs) != 3 {
		t.Fatalf("retained %d, want 3", len(evs))
	}
	for i, want := range []string{"k2", "k3", "k4"} {
		if evs[i].Key != want {
			t.Fatalf("ring[%d] = %s, want %s (newest-window order)", i, evs[i].Key, want)
		}
	}
	if s.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", s.Dropped())
	}
	if s.Recorded("S") != 5 {
		t.Fatalf("recorded = %d, want 5", s.Recorded("S"))
	}
	if s.Count("S") != 3 {
		t.Fatalf("count = %d, want 3", s.Count("S"))
	}
}

// TestSinkDropsDecodedPayload: egress is the event's bytes; retention,
// subscribers and handlers never hold the decoded object.
func TestSinkDropsDecodedPayload(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("S", 1)
	var handled event.Event
	s.Attach("S", OutputHandlerFunc(func(ev event.Event) { handled = ev }))
	ev := sev("S", "k")
	ev.Value, ev.Decoded = []byte(`1`), new(int)
	s.Record(ev)
	if got := s.Events("S")[0]; got.Decoded != nil || string(got.Value) != "1" {
		t.Fatalf("retained %+v, want the bytes without the decoded payload", got)
	}
	if got := <-sub.C(); got.Decoded != nil {
		t.Fatalf("subscriber got a decoded payload %v", got.Decoded)
	}
	if handled.Decoded != nil {
		t.Fatalf("handler got a decoded payload %v", handled.Decoded)
	}
}

func TestSinkUnboundedKeepsEverything(t *testing.T) {
	s := NewSink(0)
	for i := 0; i < 100; i++ {
		s.Record(sev("S", fmt.Sprintf("k%d", i)))
	}
	if s.Count("S") != 100 || s.Dropped() != 0 {
		t.Fatalf("count=%d dropped=%d, want 100, 0", s.Count("S"), s.Dropped())
	}
}

func TestSubscribeDeliversInOrder(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("S", 16)
	for i := 0; i < 10; i++ {
		s.Record(sev("S", fmt.Sprintf("k%d", i)))
	}
	s.Close()
	i := 0
	for ev := range sub.C() {
		if want := fmt.Sprintf("k%d", i); ev.Key != want {
			t.Fatalf("sub[%d] = %s, want %s", i, ev.Key, want)
		}
		i++
	}
	if i != 10 {
		t.Fatalf("received %d events, want 10", i)
	}
}

func TestSubscribeOnlySeesItsStream(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("A", 16)
	s.Record(sev("B", "x"))
	s.Record(sev("A", "y"))
	s.Close()
	var got []string
	for ev := range sub.C() {
		got = append(got, ev.Key)
	}
	if len(got) != 1 || got[0] != "y" {
		t.Fatalf("got %v, want [y]", got)
	}
}

func TestSlowSubscriberDropsInsteadOfBlocking(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("S", 2) // tiny buffer, nobody reading
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			s.Record(sev("S", "k"))
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Record blocked on a slow subscriber")
	}
	if sub.Dropped() != 48 {
		t.Fatalf("sub dropped = %d, want 48", sub.Dropped())
	}
	// The ring still has everything: subscriber loss is per subscriber.
	if s.Count("S") != 50 {
		t.Fatalf("ring count = %d, want 50", s.Count("S"))
	}
}

func TestSubscriptionCancelIsIdempotent(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("S", 2)
	sub.Cancel()
	sub.Cancel()
	if _, ok := <-sub.C(); ok {
		t.Fatal("cancelled channel still open")
	}
	// Records after cancel don't panic or reach the subscriber.
	s.Record(sev("S", "k"))
}

func TestAttachHandlerRunsSynchronously(t *testing.T) {
	s := NewSink(0)
	var got []string
	s.Attach("S", OutputHandlerFunc(func(ev event.Event) {
		got = append(got, ev.Key)
	}))
	s.Record(sev("S", "a"))
	s.Record(sev("T", "ignored"))
	s.Record(sev("S", "b"))
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("handler saw %v, want [a b]", got)
	}
}

func TestCloseClosesSubscriptionsAndStopsRecording(t *testing.T) {
	s := NewSink(0)
	sub := s.Subscribe("S", 4)
	s.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel open after Close")
	}
	s.Record(sev("S", "k"))
	if s.Count("S") != 0 {
		t.Fatal("Record after Close retained an event")
	}
	late := s.Subscribe("S", 4)
	if _, ok := <-late.C(); ok {
		t.Fatal("subscription on a closed sink should be born closed")
	}
}
