package engine2

import (
	"bytes"
	"runtime"
	"testing"

	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/workload"
)

// TestFrameworkAllocBudget pins what the 2.0 delivery path allocates
// once its keys are warm: a map publishing into a typed counter, driven
// by batched ingest. Dispatch (the per-thread running slot), fan-out
// (the app's subscriber index) and the shared re-published value leave
// the framework well under one allocation per source event; each of the
// three used to cost one or more. A copied value shares the emitter's
// chunk with the values of the invocations before it, so it costs about
// one allocation per four hundred 40-byte values, not one per
// invocation. A tweet the map decodes and re-publishes to a typed
// updater, which reads the same object, is carved from a 16 KiB chunk
// its worker thread's emitter owns, about fifty tweets to a chunk. With
// a collection after every round the copied value's budget holds too:
// what the path reuses (the ingress plan, the dispatch scratch) is kept
// on spare lists the GC does not empty.
func TestFrameworkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	fresh := bytes.Repeat([]byte("v"), 40)
	count := func(_ core.Emitter, _ event.Event, s *struct{ N int }) { s.N++ }
	for _, c := range []struct {
		name    string
		publish func(emit core.Emitter, in event.Event)
		update  func(emit core.Emitter, in event.Event, s *struct{ N int })
		budget  float64
		gc      bool
	}{
		{"shared", func(emit core.Emitter, in event.Event) { emit.Publish("S2", in.Key, in.Value) }, count, 0.5, false},
		{"copied", func(emit core.Emitter, in event.Event) { emit.Publish("S2", in.Key, fresh) }, count, 0.1, false},
		{"copied, GC between rounds", func(emit core.Emitter, in event.Event) { emit.Publish("S2", in.Key, fresh) }, count, 0.02, true},
		{"typed payload", func(emit core.Emitter, in event.Event) {
			if _, err := core.Payload[workload.Tweet](emit, in); err == nil {
				emit.Publish("S2", in.Key, in.Value)
			}
		}, func(emit core.Emitter, in event.Event, s *struct{ N int }) {
			if tw, err := core.Payload[workload.Tweet](emit, in); err == nil && tw.User == in.Key {
				s.N++
			}
		}, 0.03, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			if perEvent := frameworkAllocs(t, c.publish, c.update, c.gc); perEvent > c.budget {
				t.Fatalf("framework allocates %.3f objects per source event, budget %.2f", perEvent, c.budget)
			}
		})
	}
}

// frameworkAllocs runs a map calling publish into a typed updater on 2
// threads and returns the allocations per source event once its keys
// are warm. The source events are tweets keyed by their user. With gc,
// a collection follows every round and its own allocations are not
// counted.
func frameworkAllocs(t *testing.T, publish func(core.Emitter, event.Event), update func(core.Emitter, event.Event, *struct{ N int }), gc bool) float64 {
	m := core.MapFunc{FName: "M", Fn: publish}
	u := core.Update("U", update)
	app := core.NewApp("budget").Input("S1").
		AddMap(m, []string{"S1"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 2, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	const batch, warm, rounds = 64, 50, 500
	evs := workload.New(workload.Config{Seed: 5, Users: 1000, URLFraction: 0.5}).Tweets("S1", batch)
	round := func() {
		if _, err := e.IngestBatch(evs); err != nil {
			t.Fatal(err)
		}
		e.Drain()
	}
	for i := 0; i < warm; i++ {
		round()
	}
	var ms runtime.MemStats
	var mallocs uint64
	for i := 0; i < rounds; i++ {
		runtime.ReadMemStats(&ms)
		start := ms.Mallocs
		round()
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - start
		if gc {
			runtime.GC()
		}
	}
	perEvent := float64(mallocs) / (rounds * batch)
	t.Logf("%.3f mallocs per source event", perEvent)
	return perEvent
}

// TestDispatchScratchOutlivesGC: a batch dispatch's scratch goes back to
// its machine's spare list with the room its slices grew, and the next
// dispatch takes it back after collections, which would have emptied a
// sync.Pool; one grown past spareEnvelopes is left to the GC.
func TestDispatchScratchOutlivesGC(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines["machine-00"]
	sc := m.scratch()
	sc.envs[0] = append(sc.envs[0], make([]engine.Envelope, 64)...)
	m.release(sc)
	runtime.GC()
	runtime.GC()
	if got := m.scratch(); got != sc || cap(got.envs[0]) < 64 || len(got.envs[0]) != 0 {
		t.Fatalf("after two collections dispatch took a new scratch or a shrunk one (same %v)", got == sc)
	}
	big := m.scratch()
	big.envs[1] = make([]engine.Envelope, 0, spareEnvelopes+1)
	m.release(big)
	if m.scratch() == big {
		t.Fatal("a scratch with room for more than spareEnvelopes envelopes was kept")
	}
}
