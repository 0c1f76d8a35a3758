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

// TestSinkDropsDecodedPayload: egress is the event's bytes; subscribers
// and handlers never hold the decoded object.
func TestSinkDropsDecodedPayload(t *testing.T) {
	s := NewSink()
	sub := s.Subscribe("S", 1)
	var handled event.Event
	s.Attach("S", OutputHandlerFunc(func(ev event.Event) { handled = ev }))
	ev := sev("S", "k")
	ev.Value, ev.Decoded = []byte(`1`), new(int)
	s.Record(ev)
	if got := <-sub.C(); got.Decoded != nil || string(got.Value) != "1" {
		t.Fatalf("subscriber got %+v, want the bytes without the decoded payload", got)
	}
	if handled.Decoded != nil {
		t.Fatalf("handler got a decoded payload %v", handled.Decoded)
	}
}

func TestSubscribeDeliversInOrder(t *testing.T) {
	s := NewSink()
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
	s := NewSink()
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
	s := NewSink()
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
}

func TestSubscriptionCancelIsIdempotent(t *testing.T) {
	s := NewSink()
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
	s := NewSink()
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
	s := NewSink()
	sub := s.Subscribe("S", 4)
	handled := 0
	s.Attach("S", OutputHandlerFunc(func(event.Event) { handled++ }))
	s.Close()
	if _, ok := <-sub.C(); ok {
		t.Fatal("channel open after Close")
	}
	s.Record(sev("S", "k"))
	if handled != 0 {
		t.Fatal("Record after Close reached a handler")
	}
	late := s.Subscribe("S", 4)
	if _, ok := <-late.C(); ok {
		t.Fatal("subscription on a closed sink should be born closed")
	}
}
