// Package event defines the fundamental MapUpdate data model: events,
// streams, and the deterministic global ordering the paper's semantics
// depend on.
//
// Following Section 3 of the paper, an event is a tuple <sid, ts, k, v>:
// the ID of the stream it belongs to, a globally comparable timestamp, a
// grouping key, and an opaque value blob. A stream is the sequence of all
// events with the same sid in increasing timestamp order, ties broken
// deterministically.
package event

import (
	"bytes"
	"fmt"
	"strings"
)

// Timestamp is a global logical timestamp in microseconds. The paper
// assumes timestamps are global across all streams so that merging
// multiple streams yields a well-defined order; local timestamps, if any,
// belong in the event value.
type Timestamp int64

// Event is the unit of data flowing through a MapUpdate application.
type Event struct {
	// Stream is the ID of the stream this event belongs to (sid).
	Stream string
	// TS is the event's global timestamp.
	TS Timestamp
	// Seq disambiguates events that share (TS, Stream). Sources assign
	// strictly increasing sequence numbers so that the total order
	// (TS, Stream, Seq) is deterministic, which the paper requires for
	// well-defined executions ("using a deterministic tie-breaking
	// procedure").
	Seq uint64
	// Key groups events, as in MapReduce. Keys have atomic values and
	// need not be unique across events.
	Key string
	// Value is an opaque blob associated with the event (for example the
	// JSON body of a tweet).
	Value []byte
	// Ingress is instrumentation metadata: the wall-clock nanosecond at
	// which the root external event entered the system. Derived events
	// inherit it, so observing (now - Ingress) at a slate update yields
	// the end-to-end pipeline latency the paper reports ("a latency of
	// under 2 seconds", Section 5). Zero means unset. It is not part of
	// the MapUpdate model.
	Ingress int64
	// TraceEnq is instrumentation metadata: when the observability
	// tracer samples a delivery, the queue-admission wall-clock
	// nanosecond is stamped here so the dequeuing worker can observe
	// queue wait and trace the rest of the lifecycle. Zero means the
	// delivery is untraced. Node-local (never crosses the wire); like
	// Ingress, it is not part of the MapUpdate model.
	TraceEnq int64
	// Decoded is Value decoded by core.Payload, set by the engine only
	// beside the exact bytes it came from; shared and read-only like
	// Value. Node-local: the wire, the egress sink and ingest drop it.
	Decoded any
}

// Less reports whether e is ordered strictly before f in the global
// deterministic order (TS, Stream, Seq).
func (e Event) Less(f Event) bool {
	if e.TS != f.TS {
		return e.TS < f.TS
	}
	if e.Stream != f.Stream {
		return e.Stream < f.Stream
	}
	return e.Seq < f.Seq
}

// Compare returns -1, 0, or +1 according to the global deterministic
// order (TS, Stream, Seq).
func (e Event) Compare(f Event) int {
	switch {
	case e.TS < f.TS:
		return -1
	case e.TS > f.TS:
		return 1
	}
	if c := strings.Compare(e.Stream, f.Stream); c != 0 {
		return c
	}
	switch {
	case e.Seq < f.Seq:
		return -1
	case e.Seq > f.Seq:
		return 1
	}
	return 0
}

// String renders the event for logs and tests.
func (e Event) String() string {
	v := string(e.Value)
	if len(v) > 32 {
		v = v[:29] + "..."
	}
	return fmt.Sprintf("event{sid=%s ts=%d seq=%d key=%q value=%q}", e.Stream, e.TS, e.Seq, e.Key, v)
}

// Clone returns e with its own copies of Key and Value. A received
// event's key and value may share a chunk with the events of many
// other frames, and an emitted event's value a chunk with other
// invocations' values; a holder that keeps the event past its delivery
// keeps a clone, so the chunk can be freed.
func (e Event) Clone() Event {
	e.Key = strings.Clone(e.Key)
	e.Value = bytes.Clone(e.Value)
	return e
}

// Size returns the approximate in-memory footprint of the event in
// bytes; queues use it to account for memory pressure.
func (e Event) Size() int {
	return len(e.Stream) + len(e.Key) + len(e.Value) + 24
}
