package engine2

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"muppet/internal/core"
	"muppet/internal/event"
)

// TestFrameworkAllocBudget pins what the 2.0 delivery path allocates
// once its keys are warm: a map publishing into a typed counter, driven
// by batched ingest. Dispatch (the per-thread running slot), fan-out
// (the app's subscriber index) and the shared re-published value leave
// the framework well under one allocation per source event; each of the
// three used to cost one or more. A copied value shares the emitter's
// chunk with the values of the invocations before it, so it costs about
// one allocation per hundred 40-byte values, not one per invocation.
func TestFrameworkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	fresh := bytes.Repeat([]byte("v"), 40)
	for _, c := range []struct {
		name    string
		publish func(emit core.Emitter, in event.Event)
		budget  float64
	}{
		{"shared", func(emit core.Emitter, in event.Event) { emit.Publish("S2", in.Key, in.Value) }, 0.5},
		{"copied", func(emit core.Emitter, in event.Event) { emit.Publish("S2", in.Key, fresh) }, 0.1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if perEvent := frameworkAllocs(t, c.publish); perEvent > c.budget {
				t.Fatalf("framework allocates %.2f objects per source event, budget %.1f", perEvent, c.budget)
			}
		})
	}
}

// frameworkAllocs runs a map calling publish into a typed counter and
// returns the allocations per source event once its keys are warm.
func frameworkAllocs(t *testing.T, publish func(core.Emitter, event.Event)) float64 {
	m := core.MapFunc{FName: "M", Fn: publish}
	u := core.Update("U", func(_ core.Emitter, _ event.Event, s *struct{ N int }) { s.N++ })
	app := core.NewApp("budget").Input("S1").
		AddMap(m, []string{"S1"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 2, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	const batch, warm, rounds = 64, 50, 500
	evs := make([]event.Event, batch)
	for i := range evs {
		evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i), Value: []byte("payload")}
	}
	round := func() {
		if _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	for i := 0; i < warm; i++ {
		round()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perEvent := float64(after.Mallocs-before.Mallocs) / (rounds * batch)
	t.Logf("%.3f mallocs per source event", perEvent)
	return perEvent
}
