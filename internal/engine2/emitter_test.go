package engine2

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"
	"unsafe"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/runtime"
)

// TestEmitterSteadyStateZeroAllocs pins the acceptance criterion of
// the zero-allocation hot path: once a thread's reusable emitter has
// warmed its scratch (outputs slice, value arena), a map invocation's
// publishes allocate nothing inside the emitter itself. What is left —
// a fresh chunk for the derived events' values, once a chunk's worth of
// copied values has gone out (a re-published input is shared) — lives
// in the runtime's Emit, not here.
func TestEmitterSteadyStateZeroAllocs(t *testing.T) {
	app := counterApp()
	var em runtime.Emitter
	value := []byte("checkin:walmart")
	// Warm-up: grow the scratch to its steady-state capacity.
	em.Reset(app, "M1", false)
	if err := em.Publish("S2", "walmart", value); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		em.Reset(app, "M1", false)
		em.Publish("S2", "walmart", value)
		em.Publish("S2", "target", value)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Publish allocates %v objects per invocation, want 0", allocs)
	}
}

// TestPublishPayloadSteadyStateZeroAllocs pins the typed publish: a
// value built on the map's stack is encoded straight into the warm
// emitter's arena, so neither the value nor its encoding allocates.
func TestPublishPayloadSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	app := counterApp()
	var em runtime.Emitter
	publish := func() {
		em.Reset(app, "M1", false)
		for i := range 2 {
			d := delta{From: "user00042", Delta: 0.25 * float64(i)}
			if err := core.PublishPayload(&em, "S2", "walmart", &d); err != nil {
				t.Fatal(err)
			}
		}
	}
	publish() // warm-up: grow the scratch to its steady-state capacity
	if allocs := testing.AllocsPerRun(1000, publish); allocs != 0 {
		t.Fatalf("steady-state PublishPayload allocates %v objects per invocation, want 0", allocs)
	}
}

// delta is a typed payload the size of reputation's score delta.
type delta struct {
	From  string  `json:"from"`
	Delta float64 `json:"delta"`
}

// TestEmitterArenaIsolation guards the arena slicing: events derived
// from one invocation must keep their bytes after the emitter is
// reused by later invocations, and appending to one event's value
// must never bleed into the next output's bytes (the three-index
// slice contract). The input value re-published as is is shared, not
// copied, under the same contract; anything else — a sub-slice of it,
// a modified copy — still goes through the arena. The derived events
// are read back as the update consuming them receives them off its
// queue. (Not off an output stream: the egress sink hands subscribers
// their own copies.) Emit copies the values of consecutive invocations
// into one chunk; none of them grows or bleeds into another, a value
// larger than the chunk is allocated apart, and a typed publish that
// fails leaves nothing behind.
func TestEmitterArenaIsolation(t *testing.T) {
	var body func(core.Emitter, event.Event)
	m := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) { body(emit, in) }}
	received := make(chan event.Event, 8)
	u := core.UpdateFunc{FName: "U1", Fn: func(_ core.Emitter, in event.Event, _ []byte) { received <- in }}
	app := core.NewApp("arena").Input("S1").
		AddMap(m, []string{"S1"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	emitted := func(want int) []event.Event {
		e.Drain()
		if got := len(received); got != want {
			t.Fatalf("Emit delivered %d events, want %d", got, want)
		}
		out := make([]event.Event, want)
		for i := range out {
			out[i] = <-received
		}
		return out
	}

	var em runtime.Emitter
	em.Reset(app, "M1", false)
	em.Publish("S2", "a", []byte("first"))
	em.Publish("S2", "b", []byte("second"))
	e.Emit(&em, &event.Event{Stream: "S1", TS: 1, Key: "k"}, nil)
	out := emitted(2)
	ev1, ev2 := out[0], out[1]

	// Reuse the emitter; the events' values must be unaffected.
	em.Reset(app, "M1", false)
	em.Publish("S2", "c", []byte("XXXXXXXXXXXXXXXX"))
	if !bytes.Equal(ev1.Value, []byte("first")) || !bytes.Equal(ev2.Value, []byte("second")) {
		t.Fatalf("emitter reuse corrupted derived events: %q, %q", ev1.Value, ev2.Value)
	}

	// Appending to the first event's value must reallocate, not grow
	// into the second's bytes.
	_ = append(ev1.Value, []byte("-grown")...)
	if !bytes.Equal(ev2.Value, []byte("second")) {
		t.Fatalf("append to one output bled into the next: %q", ev2.Value)
	}

	// The input value re-published as is, then a sub-slice of it and a
	// modified copy: only the first shares the input's bytes.
	body = func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", "same", in.Value)
		emit.Publish("S2", "sub", in.Value[:3])
		emit.Publish("S2", "copy", append([]byte("X"), in.Value[1:]...))
	}
	in := event.Event{Stream: "S1", TS: 2, Key: "k", Value: make([]byte, 5, 16)}
	copy(in.Value, "input")
	em.Reset(app, "M1", false)
	em.Run(app.Function("M1"), in, nil, nil)
	e.Emit(&em, &in, nil)
	out = emitted(3)
	same, part, cp := out[0].Value, out[1].Value, out[2].Value
	if &same[0] != &in.Value[0] || len(same) != 5 || cap(same) != len(same) {
		t.Fatalf("re-published input not shared with cap == len: len %d cap %d", len(same), cap(same))
	}
	if &part[0] == &in.Value[0] || &cp[0] == &in.Value[0] {
		t.Fatal("a sub-slice or a modified copy shares the input's bytes")
	}
	if string(part) != "inp" || string(cp) != "Xnput" {
		t.Fatalf("arena values = %q, %q", part, cp)
	}
	if grown := append(same, '!'); &grown[0] == &in.Value[0] || string(in.Value[:6]) != "input\x00" {
		t.Fatalf("append to a shared value grew into the input's spare capacity: %q", in.Value[:6])
	}

	// Consecutive invocations share a chunk: each value starts where the
	// one before it ends, with cap == len.
	var chunked runtime.Emitter
	publishOne := func(key string, value []byte) event.Event {
		chunked.Reset(app, "M1", false)
		if err := chunked.Publish("S2", key, value); err != nil {
			t.Fatal(err)
		}
		e.Emit(&chunked, &event.Event{Stream: "S1", TS: 3, Key: "k"}, nil)
		return emitted(1)[0]
	}
	early := make([]event.Event, 3)
	for i := range early {
		early[i] = publishOne("early", []byte(fmt.Sprintf("early-%d", i)))
		if v := early[i].Value; cap(v) != len(v) {
			t.Fatalf("value %q has cap %d", v, cap(v))
		}
	}
	for i := 1; i < len(early); i++ {
		if !adjacent(early[i-1].Value, early[i].Value) {
			t.Fatalf("values of consecutive invocations %q and %q do not share a chunk", early[i-1].Value, early[i].Value)
		}
	}
	// Appending to a value must not grow into the one after it.
	next := publishOne("next", []byte("next"))
	_ = append(early[2].Value, "-grown"...)
	if !adjacent(early[2].Value, next.Value) || string(next.Value) != "next" {
		t.Fatalf("value after an appended one = %q, adjacent %v", next.Value, adjacent(early[2].Value, next.Value))
	}
	// A value larger than a 16 KiB chunk is allocated apart: the chunk
	// goes on where it was. Then enough invocations to fill several more
	// chunks.
	big := bytes.Repeat([]byte("B"), 17<<10)
	if got := publishOne("big", big); !bytes.Equal(got.Value, big) || cap(got.Value) != len(big) {
		t.Fatalf("a %d-byte value arrived as %d bytes, cap %d", len(big), len(got.Value), cap(got.Value))
	}
	if after := publishOne("after", []byte("after")); !adjacent(next.Value, after.Value) {
		t.Fatal("a value larger than the chunk took the chunk's place")
	}
	for i := range 2000 {
		publishOne("later", bytes.Repeat([]byte{byte('a' + i%26)}, 40))
	}
	for i, ev := range early {
		if want := fmt.Sprintf("early-%d", i); string(ev.Value) != want {
			t.Fatalf("a chunked value read %q after later invocations, want %q", ev.Value, want)
		}
	}
	if string(next.Value) != "next" {
		t.Fatalf("a chunked value read %q after later invocations, want next", next.Value)
	}

	// A typed publish that fails, by encode error or by undeclared
	// stream, publishes nothing and leaves the outputs around it whole;
	// an undeclared stream is refused before the value is encoded.
	marshals = 0
	em.Reset(app, "M1", false)
	em.Publish("S2", "a", []byte("first"))
	if err := core.PublishPayload(&em, "S2", "nan", &struct{ F float64 }{math.NaN()}); err == nil {
		t.Fatal("a NaN field published")
	}
	var undeclared core.ErrUndeclaredStream
	if err := core.PublishPayload(&em, "S9", "x", &counted{}); !errors.As(err, &undeclared) || marshals != 0 {
		t.Fatalf("publish to an undeclared stream: %v, %d encodes", err, marshals)
	}
	if err := core.PublishPayload(&em, "S2", "c", &counted{}); err != nil || marshals != 1 {
		t.Fatalf("publish to a declared stream: %v, %d encodes", err, marshals)
	}
	em.Publish("S2", "b", []byte("second"))
	e.Emit(&em, &event.Event{Stream: "S1", TS: 4, Key: "k"}, nil)
	out = emitted(3)
	for i, want := range []string{"a=first", "c=1", "b=second"} {
		if got := out[i].Key + "=" + string(out[i].Value); got != want {
			t.Fatalf("output %d = %s, want %s", i, got, want)
		}
	}
}

// adjacent reports whether b starts where a ends, in one array.
func adjacent(a, b []byte) bool {
	return unsafe.Add(unsafe.Pointer(unsafe.SliceData(a)), len(a)) == unsafe.Pointer(unsafe.SliceData(b))
}

// marshals counts counted's encodes.
var marshals int

// counted is a payload type encoding/json encodes, counting each time.
type counted struct{}

func (counted) MarshalJSON() ([]byte, error) {
	marshals++
	return []byte("1"), nil
}

// doc and otherDoc are two payload types with the same JSON shape.
type doc struct {
	N int `json:"n"`
}

type otherDoc struct {
	N int `json:"n"`
}

// TestPayloadMemo pins what the runtime emitter answers core.Payload: the
// object that arrived with the input when its type matches, otherwise
// one decode of the bytes, remembered for the rest of the invocation —
// and never an object for bytes other than the input's own.
func TestPayloadMemo(t *testing.T) {
	var body func(core.Emitter, event.Event)
	m := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) { body(emit, in) }}
	app := core.NewApp("memo").Input("S1").AddMap(m, []string{"S1"}, nil)
	run := func(in event.Event) (first, second *doc) {
		body = func(emit core.Emitter, in event.Event) {
			var err error
			if first, err = core.Payload[doc](emit, in); err != nil {
				t.Fatal(err)
			}
			second, _ = core.Payload[doc](emit, in)
		}
		var em runtime.Emitter
		em.Reset(app, "M1", false)
		em.Run(app.Function("M1"), in, nil, nil)
		return first, second
	}
	in := event.Event{Stream: "S1", Key: "k", Value: []byte(`{"n":1}`)}

	arrived := &doc{N: 1}
	in.Decoded = arrived
	if first, _ := run(in); first != arrived {
		t.Fatal("Payload decoded again instead of using the object that arrived with the input")
	}
	in.Decoded = &otherDoc{N: 1}
	if first, second := run(in); first.N != 1 || first != second {
		t.Fatalf("object of another type: Payload = %+v then %p vs %p, want one decode of the bytes", first, first, second)
	}

	// A value that is not the input's own bytes — a copy, a sub-slice —
	// is decoded on every call and never remembered.
	in.Decoded = nil
	var memo runtime.Emitter
	memo.Reset(app, "M1", false)
	body = func(emit core.Emitter, in event.Event) {
		cp := in
		cp.Value = []byte(`{"n":2}`)
		a, _ := core.Payload[doc](emit, cp)
		b, _ := core.Payload[doc](emit, cp)
		sub := in
		sub.Value = in.Value[:len(in.Value)-1]
		if a.N != 2 || a == b {
			t.Errorf("a copy's payload = %+v, %p vs %p: want a fresh decode per call", a, a, b)
		}
		if _, err := core.Payload[doc](emit, sub); err == nil {
			t.Error("a truncated sub-slice of the input decoded without error")
		}
		if got, _ := core.Payload[doc](emit, in); got.N != 1 {
			t.Errorf("input payload = %+v after reading copies, want n=1", got)
		}
	}
	memo.Run(app.Function("M1"), in, nil, nil)
}

// TestPayloadTravelsOnlyWithItsBytes runs derived events through the
// engine: a downstream subscriber gets the publisher's decoded object
// only beside the very bytes it was decoded from. An object a caller
// ingests with an event is dropped. A re-publish before the publisher's
// own Payload call still carries the right object, a reused emitter
// carries nothing stale, and a sub-slice or a modified copy of the
// input carries nothing at all.
func TestPayloadTravelsOnlyWithItsBytes(t *testing.T) {
	type seen struct {
		decoded any
		got     *doc
	}
	var (
		body    func(core.Emitter, event.Event)
		mapped  *doc
		records map[string]seen
	)
	m1 := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) { body(emit, in) }}
	m2 := core.MapFunc{FName: "M2", Fn: func(emit core.Emitter, in event.Event) {
		got, err := core.Payload[doc](emit, in)
		if err != nil {
			t.Errorf("%s: %v", in.Key, err)
			return
		}
		records[in.Key] = seen{decoded: in.Decoded, got: got}
	}}
	app := core.NewApp("travel").Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddMap(m2, []string{"S2"}, nil)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// A caller's Decoded is not the engine's: ingest drops it.
	ingest := func(value string) {
		records = map[string]seen{}
		if _, err := e.IngestBatch([]event.Event{{Stream: "S1", Key: "k", Value: []byte(value), Decoded: &doc{N: -1}}}); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}

	// Publish first, decode after; twice on the one thread's emitter.
	body = func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", "same", in.Value)
		mapped, _ = core.Payload[doc](emit, in)
	}
	for _, n := range []int{1, 5} {
		ingest(fmt.Sprintf(`{"n":%d}`, n))
		r := records["same"]
		if r.got == nil || r.got.N != n || r.decoded != any(mapped) || r.got != mapped {
			t.Fatalf("n=%d: downstream read %+v (arrived %v), publisher decoded %p", n, r.got, r.decoded, mapped)
		}
	}

	body = func(emit core.Emitter, in event.Event) {
		mapped, _ = core.Payload[doc](emit, in)
		emit.Publish("S2", "same", in.Value)
		emit.Publish("S2", "sub", in.Value[:len(in.Value)-1])
		emit.Publish("S2", "copy", bytes.Replace(in.Value, []byte("7"), []byte("8"), 1))
	}
	ingest(`{"n":7} `)
	if r := records["same"]; r.decoded != any(mapped) || r.got != mapped {
		t.Fatalf("shared re-publish: arrived %v, read %p; publisher decoded %p", r.decoded, r.got, mapped)
	}
	for key, want := range map[string]int{"sub": 7, "copy": 8} {
		if r := records[key]; r.got == nil || r.decoded != nil || r.got == mapped || r.got.N != want {
			t.Fatalf("%s: arrived with %v, read %+v; want no object and n=%d", key, r.decoded, r.got, want)
		}
	}
}
