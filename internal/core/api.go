// Package core defines the MapUpdate programming model of Section 3 of
// the paper: events, streams, map and update functions, slates, and
// applications as workflow graphs. It also provides the Reference
// engine — a single-goroutine executor that produces the paper's
// "well-defined" canonical execution (events fed in global timestamp
// order with deterministic tie-breaking), which the distributed
// engines are tested against.
package core

import (
	"muppet/internal/event"
)

// Emitter is the Go equivalent of the paper's PerformerUtilities
// (Appendix A): the handle through which a running map or update
// function publishes events and, for updaters, replaces its slate.
type Emitter interface {
	// Publish emits an event with the given key and value to a stream.
	// The framework assigns the event a timestamp strictly greater than
	// the input event's timestamp, which keeps cyclic workflows
	// well-defined (Section 3). The value is copied, so the caller may
	// reuse it at once, except the input event's own value re-published
	// as is, which is shared: functions must not modify in.Value — it is
	// already shared with every other subscriber of the stream and with
	// the egress sink. A shared value carries the object Payload decoded
	// from it, which is shared the same way and must not be modified
	// either. To publish a typed value, PublishPayload encodes it
	// straight into the engines' copy, with no intermediate buffer.
	Publish(stream, key string, value []byte) error
	// ReplaceSlate replaces the slate of the <updater, key> pair the
	// current update call is running for. Calling it from a map
	// function is an error (maps are memoryless).
	ReplaceSlate(value []byte)
}

// Mapper is a map function: map(event) -> event*. Mappers are
// memoryless; they subscribe to streams and emit zero or more events
// per input event.
type Mapper interface {
	// Name identifies the map function in the workflow. Because the
	// same code can be reused as different functions, each function
	// instance carries a unique name (Appendix A).
	Name() string
	// Map processes one input event.
	Map(emit Emitter, in event.Event)
}

// Updater is an update function: update(event, slate) -> event*. When
// called with an event with key k, it also receives the slate S(U,k) —
// the summary of all events with key k this updater has seen so far.
// A nil slate means the slate does not exist yet (first event for the
// key, or the slate's TTL expired); the updater must initialize it.
type Updater interface {
	// Name identifies the update function in the workflow.
	Name() string
	// Update processes one input event together with its slate.
	Update(emit Emitter, in event.Event, slate []byte)
}

// MapFunc adapts a function literal to the Mapper interface.
type MapFunc struct {
	// FName is the function's unique workflow name.
	FName string
	// Fn is the map body.
	Fn func(emit Emitter, in event.Event)
}

// Name implements Mapper.
func (m MapFunc) Name() string { return m.FName }

// Map implements Mapper.
func (m MapFunc) Map(emit Emitter, in event.Event) { m.Fn(emit, in) }

// UpdateFunc adapts a function literal to the Updater interface.
type UpdateFunc struct {
	// FName is the function's unique workflow name.
	FName string
	// Fn is the update body.
	Fn func(emit Emitter, in event.Event, slate []byte)
}

// Name implements Updater.
func (u UpdateFunc) Name() string { return u.FName }

// Update implements Updater.
func (u UpdateFunc) Update(emit Emitter, in event.Event, slate []byte) { u.Fn(emit, in, slate) }
