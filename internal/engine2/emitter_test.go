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
// publishes allocate nothing inside the emitter itself. The single
// remaining allocation — the per-invocation arena the derived events
// slice — lives in the runtime's Emit, not here.
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
// slice contract). The derived events are read back off a declared
// output stream, where Emit records them.
func TestEmitterArenaIsolation(t *testing.T) {
	m := core.MapFunc{FName: "M1", Fn: func(core.Emitter, event.Event) {}}
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
}
