package engine2

import (
	"bytes"
	"testing"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/runtime"
)

// TestEmitterSteadyStateZeroAllocs pins the acceptance criterion of
// the zero-allocation hot path: once a thread's reusable emitter has
// warmed its scratch (outputs slice, value arena), a map invocation's
// publishes allocate nothing inside the emitter itself. What is left —
// the per-invocation arena the derived events slice, and only when a
// value was copied (a re-published input is shared) — lives in the
// runtime's Emit, not here.
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

// TestEmitterArenaIsolation guards the arena slicing: events derived
// from one invocation must keep their bytes after the emitter is
// reused by later invocations, and appending to one event's value
// must never bleed into the next output's bytes (the three-index
// slice contract). The input value re-published as is is shared, not
// copied, under the same contract; anything else — a sub-slice of it,
// a modified copy — still goes through the arena. The derived events
// are read back off a declared output stream, where Emit records them.
func TestEmitterArenaIsolation(t *testing.T) {
	var body func(core.Emitter, event.Event)
	m := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) { body(emit, in) }}
	app := core.NewApp("arena").Input("S1").Output("S2").AddMap(m, []string{"S1"}, []string{"S2"})
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	var em runtime.Emitter
	em.Reset(app, "M1", false)
	em.Publish("S2", "a", []byte("first"))
	em.Publish("S2", "b", []byte("second"))
	e.Emit(&em, &event.Event{Stream: "S1", TS: 1, Key: "k"}, nil)
	out := e.Output("S2")
	if len(out) != 2 {
		t.Fatalf("Emit recorded %d events, want 2", len(out))
	}
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
	out = e.Output("S2")[2:]
	if len(out) != 3 {
		t.Fatalf("Emit recorded %d events, want 3", len(out))
	}
	same, sub, cp := out[0].Value, out[1].Value, out[2].Value
	if &same[0] != &in.Value[0] || len(same) != 5 || cap(same) != len(same) {
		t.Fatalf("re-published input not shared with cap == len: len %d cap %d", len(same), cap(same))
	}
	if &sub[0] == &in.Value[0] || &cp[0] == &in.Value[0] {
		t.Fatal("a sub-slice or a modified copy shares the input's bytes")
	}
	if string(sub) != "inp" || string(cp) != "Xnput" {
		t.Fatalf("arena values = %q, %q", sub, cp)
	}
	if grown := append(same, '!'); &grown[0] == &in.Value[0] || string(in.Value[:6]) != "input\x00" {
		t.Fatalf("append to a shared value grew into the input's spare capacity: %q", in.Value[:6])
	}
}
