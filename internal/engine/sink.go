package engine

import (
	"sync"
	"sync/atomic"

	"muppet/internal/event"
)

// OutputHandler consumes events published on a declared output stream
// as they are recorded — the pluggable egress of the streaming API.
// Handlers run synchronously on the recording goroutine (a worker
// thread), so they must be fast and must not call back into the
// engine; hand slow work to a Subscription instead, whose bounded
// channel sheds load rather than stalling workers.
//
// With more than one worker thread, a handler may be invoked
// CONCURRENTLY from multiple goroutines, and the invocation order
// across threads is unspecified (Subscription channels, which are
// filled under the sink lock, are the ordered view). Handlers must
// therefore be safe for concurrent use.
type OutputHandler interface {
	HandleOutput(ev event.Event)
}

// OutputHandlerFunc adapts a function literal to OutputHandler.
type OutputHandlerFunc func(ev event.Event)

// HandleOutput implements OutputHandler.
func (f OutputHandlerFunc) HandleOutput(ev event.Event) { f(ev) }

// Subscription is a live feed of one output stream. Events arrive on
// C in publication order. The channel buffer is bounded: when the
// subscriber falls behind, new events are dropped for that subscriber
// (and counted via Dropped) rather than blocking the engine's worker
// threads — the bounded-buffer egress contract.
type Subscription struct {
	sink    *Sink
	stream  string
	ch      chan event.Event
	dropped atomic.Uint64
	closed  bool // guarded by sink.mu
}

// C returns the subscription's event channel. It is closed when the
// subscription is cancelled or the engine's sink shuts down.
func (s *Subscription) C() <-chan event.Event { return s.ch }

// Stream returns the subscribed stream name.
func (s *Subscription) Stream() string { return s.stream }

// Dropped reports how many events this subscriber missed because its
// channel buffer was full.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel detaches the subscription and closes its channel. It is
// idempotent and safe to call concurrently with Record.
func (s *Subscription) Cancel() {
	s.sink.mu.Lock()
	defer s.sink.mu.Unlock()
	s.cancelLocked()
}

func (s *Subscription) cancelLocked() {
	if s.closed {
		return
	}
	s.closed = true
	st := s.sink.streams[s.stream]
	if st != nil {
		for i, sub := range st.subs {
			if sub == s {
				st.subs = append(st.subs[:i], st.subs[i+1:]...)
				break
			}
		}
	}
	close(s.ch)
}

// sinkStream is one output stream's egress state: its live
// subscriptions and attached handlers.
type sinkStream struct {
	subs     []*Subscription
	handlers []OutputHandler
}

// Sink fans events published on declared output streams out to
// subscribers and handlers. It retains nothing: an event nobody
// listens for is gone once recorded.
type Sink struct {
	mu      sync.Mutex
	streams map[string]*sinkStream
	closed  bool
}

// NewSink returns a sink with no subscribers.
func NewSink() *Sink {
	return &Sink{streams: make(map[string]*sinkStream)}
}

func (s *Sink) stream(name string) *sinkStream {
	st := s.streams[name]
	if st == nil {
		st = &sinkStream{}
		s.streams[name] = st
	}
	return st
}

// Record delivers an event to every subscriber of its stream
// (non-blocking) and every handler (synchronous).
func (s *Sink) Record(e event.Event) {
	e.Decoded = nil // egress is bytes; a subscriber must not keep the object alive
	s.mu.Lock()
	st := s.streams[e.Stream]
	if s.closed || st == nil {
		s.mu.Unlock()
		return
	}
	// Subscribers keep what they are given, and the key and value may
	// share the memory of the frame the event's input arrived in.
	e = e.Clone()
	for _, sub := range st.subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
		}
	}
	// Handlers run outside the lock: they are user code and may take
	// their time without serializing other streams' egress.
	handlers := st.handlers
	s.mu.Unlock()
	for _, h := range handlers {
		h.HandleOutput(e)
	}
}

// Subscribe attaches a live feed to a stream. buf bounds the
// subscriber's channel (default 256 when <= 0). Events recorded after
// the call arrive on the subscription's channel in publication order;
// a full buffer drops (and counts) rather than blocking the engine.
func (s *Sink) Subscribe(stream string, buf int) *Subscription {
	if buf <= 0 {
		buf = 256
	}
	sub := &Subscription{sink: s, stream: stream, ch: make(chan event.Event, buf)}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		sub.closed = true
		close(sub.ch)
		return sub
	}
	s.stream(stream).subs = append(s.stream(stream).subs, sub)
	return sub
}

// Attach registers a synchronous handler for a stream's events.
func (s *Sink) Attach(stream string, h OutputHandler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stream(stream)
	st.handlers = append(st.handlers, h)
}

// Close cancels every subscription (closing their channels so range
// loops terminate) and makes further Records no-ops. Engines call it
// on Stop.
func (s *Sink) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, st := range s.streams {
		for _, sub := range append([]*Subscription(nil), st.subs...) {
			sub.cancelLocked()
		}
	}
}
