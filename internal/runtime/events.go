package runtime

import (
	"context"
	"fmt"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/obs"
	"muppet/internal/slate"
)

// Emitter gathers one invocation's outputs (it is the core.Emitter map
// and update functions see). One emitter lives per consuming loop and
// is reset between invocations: the outputs slice and the value scratch
// arena keep their capacity, so a steady-state invocation allocates
// nothing inside the emitter. Published values are copied once, into
// the arena; Emit materializes them for the derived events afterwards.
// The one exception is the invocation's input value re-published as is:
// it is already immutable and shared, so it is shared once more, with
// the object core.Payload decoded from it, if any.
type Emitter struct {
	app      *core.App
	function string
	isUpdate bool
	in       []byte // the running invocation's input value
	decoded  any    // in's decoded payload, when known
	outputs  []emitted
	vals     []byte // scratch arena holding every copied value
	newSlate []byte
	replaced bool
	err      error
	// one is the frame of one each output is handed to the courier in:
	// the loop's, not the invocation's, so a local emit allocates none.
	one [1]cluster.Delivery
}

// emitted is one published output: its stream and key, and the bounds
// of its value in the emitter's scratch arena — or, for a re-published
// input value, that value itself (cap == len).
type emitted struct {
	stream, key string
	off, end    int
	shared      []byte
}

// Reset readies the emitter for one invocation of function.
func (c *Emitter) Reset(app *core.App, function string, isUpdate bool) {
	c.app = app
	c.function = function
	c.isUpdate = isUpdate
	c.in, c.decoded = nil, nil
	c.outputs = c.outputs[:0]
	c.vals = c.vals[:0]
	c.newSlate = nil
	c.replaced = false
	c.err = nil
}

// Publish implements core.Emitter.
func (c *Emitter) Publish(stream, key string, value []byte) error {
	if !c.app.MayPublish(c.function, stream) {
		err := core.ErrUndeclaredStream{Function: c.function, Stream: stream}
		if c.err == nil {
			c.err = err
		}
		return err
	}
	if c.isInput(value) {
		c.outputs = append(c.outputs, emitted{stream: stream, key: key, shared: value[:len(value):len(value)]})
		return nil
	}
	off := len(c.vals)
	c.vals = append(c.vals, value...)
	c.outputs = append(c.outputs, emitted{stream: stream, key: key, off: off, end: len(c.vals)})
	return nil
}

// isInput reports whether value is the input's own bytes, not a copy.
func (c *Emitter) isInput(value []byte) bool {
	return len(value) > 0 && len(value) == len(c.in) && &value[0] == &c.in[0]
}

// PayloadOf returns the input's decoded payload, if value is the input.
func (c *Emitter) PayloadOf(value []byte) any {
	if c.isInput(value) {
		return c.decoded
	}
	return nil
}

// NotePayload remembers the input's decoded payload for a re-publish.
func (c *Emitter) NotePayload(value []byte, decoded any) {
	if c.isInput(value) {
		c.decoded = decoded
	}
}

// ReplaceSlate implements core.Emitter.
func (c *Emitter) ReplaceSlate(value []byte) {
	if !c.isUpdate {
		panic(fmt.Sprintf("muppet: map function %s called ReplaceSlate", c.function))
	}
	// The slate cache retains the value, so it gets its own allocation
	// (never the reused arena); append to a non-nil empty slice so that
	// an empty slate stays distinct from "no slate" (nil) on the next
	// update call.
	c.newSlate = append([]byte{}, value...)
	c.replaced = true
}

// Run executes f on ev into the emitter: a map call, or an update over
// the slate Cell.Load returned.
func (c *Emitter) Run(f *core.FunctionSpec, ev event.Event, obj any, raw []byte) {
	c.in, c.decoded = ev.Value, ev.Decoded
	switch {
	case f.Kind == core.KindMap:
		f.Mapper.Map(c, ev)
	case obj != nil:
		f.Updater.(core.DecodedUpdater).UpdateDecoded(c, ev, obj)
	default:
		f.Updater.Update(c, ev, raw)
	}
}

// Load fetches the slate an update invocation of f starts from. For a
// typed updater that is the decoded object: decoded at most once per
// cache fill, pinned in the cache so the flusher leaves it alone until
// Commit, mutated in place by the updater and re-encoded once per flush
// batch or external read, not per event. It is never nil — a missing
// slate, or a read error (store failure, undecodable row; counted in
// the cache's DecodeErrors), starts from a fresh zero value, the byte
// path's disposition for an always-replacing updater. For a byte-slate
// updater it is the raw slate, nil when missing.
func (c *Cell) Load(f *core.FunctionSpec, sk slate.Key) (obj any, raw []byte) {
	if f.Codec == nil {
		raw, _ = c.Cache.Get(sk)
		return nil, raw
	}
	if obj, _ = c.Cache.GetDecoded(sk, f.Codec); obj == nil {
		obj = f.Codec.New()
	}
	return obj, nil
}

// Commit writes an update invocation's slate back to the cell's cache —
// the decoded object (releasing Load's pin), or the value the updater
// passed to ReplaceSlate, if it did — and accounts the update and its
// end-to-end latency.
func (r *Runtime) Commit(c *Cell, f *core.FunctionSpec, sk slate.Key, obj any, em *Emitter, in *event.Event) {
	switch {
	case obj != nil:
		c.Cache.PutDecoded(sk, obj, f.Codec)
	case em.replaced:
		c.Cache.Put(sk, em.newSlate)
	default:
		return
	}
	r.counters.SlateUpdates.Add(1)
	r.counters.ObserveLatency(*in)
}

// Stamp marks a sampled delivery with its queue-admission time; the
// consuming loop turns the mark into a lifecycle span (Begin).
func (r *Runtime) Stamp(ev *event.Event) {
	if r.tracer.Sample() {
		ev.TraceEnq = time.Now().UnixNano()
	}
}

// Begin opens the lifecycle span of a delivery Stamp sampled; nil for
// the rest.
func (r *Runtime) Begin(ev *event.Event) *obs.Span {
	if ev.TraceEnq == 0 {
		return nil
	}
	return r.tracer.Start(ev.Stream, ev.Ingress, ev.TraceEnq)
}

// Emit routes everything an invocation published, closing the span's
// exec stage first. One allocation holds every copied value; the
// derived events slice it. The emitter's scratch arena cannot be handed
// out directly — the next invocation reuses it, while queues and output
// subscribers keep the events indefinitely.
func (r *Runtime) Emit(em *Emitter, in *event.Event, sp *obs.Span) {
	sp.MarkExec()
	if len(em.outputs) == 0 {
		return
	}
	var arena []byte
	if len(em.vals) > 0 {
		arena = make([]byte, len(em.vals))
		copy(arena, em.vals)
	}
	for _, out := range em.outputs {
		r.route(r.derive(out, arena, em.decoded, in), engine.FromWorker, &em.one)
	}
	sp.MarkEmit()
}

// Done retires one finished invocation: its span, the processed count,
// and its in-flight charge.
func (r *Runtime) Done(sp *obs.Span) {
	r.tracer.Finish(sp)
	r.counters.Processed.Add(1)
	r.tracker.Dec()
}

// Forward hands a dequeued delivery to the current owner of its key
// instead of processing it: a ring change (failover or rejoin) while it
// was queued moved the key, and running it here would break the
// single-writer property.
func (r *Runtime) Forward(fn string, ev event.Event) {
	r.out.Deliver(fn, ev, engine.FromWorker, nil)
	r.tracker.Dec()
}

// derive stamps an emitted record into a routable event: timestamp
// strictly greater than the input's, fresh sequence number, inherited
// ingress stamp, value shared or sliced out of the invocation's arena
// (either way cap == len, so a downstream append reallocates instead of
// growing into bytes it does not own). A shared value is the input's
// and carries decoded, the input's payload.
func (r *Runtime) derive(out emitted, arena []byte, decoded any, in *event.Event) event.Event {
	ev := event.Event{
		Stream:  out.stream,
		TS:      in.TS + 1,
		Seq:     r.seq.Add(1),
		Key:     out.key,
		Value:   out.shared,
		Ingress: in.Ingress,
	}
	if out.shared != nil {
		ev.Decoded = decoded
	} else if out.end > out.off {
		ev.Value = arena[out.off:out.end:out.end]
	}
	return ev
}

// route fans an event out to every subscriber of its stream, on behalf
// of whoever produced it, recording it first if the stream is a
// declared output. one is the courier's reusable frame (Courier.Deliver).
func (r *Runtime) route(ev event.Event, from engine.Origin, one *[1]cluster.Delivery) {
	if r.app.IsOutput(ev.Stream) {
		r.sink.Record(ev)
	}
	for _, fn := range r.app.Subscribers(ev.Stream) {
		r.out.Deliver(fn, ev, from, one)
	}
}

// Ingest feeds one external input event into the application (the
// paper's special mapper M0 reading from the input stream). It stamps
// the event's ingress time for latency measurement.
func (r *Runtime) Ingest(ev event.Event) {
	if !r.app.IsInput(ev.Stream) {
		panic(fmt.Sprintf("muppet: Ingest on non-input stream %s", ev.Stream))
	}
	ev.Decoded = nil // only the engine attaches one, beside its own bytes
	if ev.Seq == 0 {
		ev.Seq = r.seq.Add(1)
	}
	if ev.Ingress == 0 {
		ev.Ingress = time.Now().UnixNano()
	}
	r.counters.Ingested.Add(1)
	r.route(ev, engine.FromSource, nil)
}

// IngestBatch feeds a batch of external input events into the
// application through the ingress driver, amortizing the per-event
// ingress costs per destination-machine group (one cluster exchange,
// and one queue lock per target queue, however many deliveries the
// group carries). It returns the number of events whose every
// subscriber delivery was accepted; when deliveries were dropped, the
// error is a *ingress.BatchError tallying the losses by reason (each
// also recorded in LostEvents). A batch containing a non-input stream
// is rejected whole with *ingress.NotInputError before any side
// effects.
func (r *Runtime) IngestBatch(evs []event.Event) (int, error) {
	return r.ing.IngestBatch(evs)
}

// IngestCtx ingests one event, reporting backpressure and overflow
// instead of silently dropping: while the destination queue is full
// the call retries until the context is done, then fails with an error
// wrapping ingress.ErrBackpressure.
func (r *Runtime) IngestCtx(ctx context.Context, ev event.Event) error {
	return r.ing.IngestCtx(ctx, ev)
}

// Subscribe attaches a live feed to a declared output stream: events
// arrive on the subscription's channel in publication order, and a
// slow subscriber's full buffer drops (and counts) rather than
// blocking workers. buf <= 0 selects the default buffer (256). Like
// Ingest on a non-input stream, subscribing to a stream the
// application does not declare as an output panics — the feed would
// never fire.
func (r *Runtime) Subscribe(stream string, buf int) *engine.Subscription {
	if !r.app.IsOutput(stream) {
		panic(fmt.Sprintf("muppet: Subscribe on non-output stream %s", stream))
	}
	return r.sink.Subscribe(stream, buf)
}

// AttachOutput registers a synchronous handler for a declared output
// stream's events — the pluggable egress sink. It panics if the
// stream is not a declared output.
func (r *Runtime) AttachOutput(stream string, h engine.OutputHandler) {
	if !r.app.IsOutput(stream) {
		panic(fmt.Sprintf("muppet: AttachOutput on non-output stream %s", stream))
	}
	r.sink.Attach(stream, h)
}

// LostEvents exposes the log of abandoned deliveries ("logged as
// lost", §4.3) for later processing and debugging.
func (r *Runtime) LostEvents() *engine.LostLog { return r.lost }
