package muppet_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"muppet"
	"muppet/internal/engine"
)

// Block-policy liveness: throttling inside a workflow deadlocks (§4.3,
// §5 — only sources may be slowed), so under BlockOverflow a worker's
// own emits must never wait on a full queue — the queue may be its own.
// Each case puts one machine with a one- or two-slot queue behind a
// workflow that feeds itself; before queue.Offer the worker parked on
// its own notFull forever.

// selfFeedingApp's updater republishes every event to its own input
// stream until the hop count in the value runs out.
func selfFeedingApp() *muppet.App {
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n, _ := strconv.Atoi(string(sl))
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		if hops, _ := strconv.Atoi(string(in.Value)); hops > 0 {
			emit.Publish("S2", in.Key, []byte(strconv.Itoa(hops-1)))
		}
	}}
	return muppet.NewApp("selffeed").Input("S1").
		AddUpdate(u, []string{"S1", "S2"}, []string{"S2"}, 0)
}

// cycleApp is a two-function loop: M1 forwards S1 and S3 onto S2, U1
// counts S2 and publishes back onto S3 while hops remain.
func cycleApp() *muppet.App {
	m := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n, _ := strconv.Atoi(string(sl))
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		if hops, _ := strconv.Atoi(string(in.Value)); hops > 0 {
			emit.Publish("S3", in.Key, []byte(strconv.Itoa(hops-1)))
		}
	}}
	return muppet.NewApp("cycle").Input("S1").
		AddMap(m, []string{"S1", "S3"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, []string{"S3"}, 0)
}

func TestBlockPolicyWorkerEmitsNeverDeadlock(t *testing.T) {
	const events = 2000
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
		app     func() *muppet.App
	}{
		{"engine2/self", muppet.EngineV2, selfFeedingApp},
		{"engine2/cycle", muppet.EngineV2, cycleApp},
		{"engine1/self", muppet.EngineV1, selfFeedingApp},
		{"engine1/cycle", muppet.EngineV1, cycleApp},
	} {
		for _, capacity := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cap%d", tc.name, capacity), func(t *testing.T) {
				eng, err := muppet.NewEngine(tc.app(), muppet.Config{
					Engine:        tc.version,
					Machines:      1,
					QueueCapacity: capacity,
					QueuePolicy:   muppet.BlockOverflow,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < events; i++ {
						eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%4), Value: []byte("3")})
					}
					eng.Drain()
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					// Not stopped: Stop would wait on the same deadlock.
					t.Fatalf("workflow did not drain within 5s (%d of %d ingested): a worker is waiting on a full queue", eng.Stats().Ingested, events)
				}
				defer eng.Stop()

				// Sources were slowed, never dropped; every worker emit
				// either landed or took the Drop disposition, logged.
				st := eng.Stats()
				if st.Ingested != events {
					t.Fatalf("ingested %d of %d", st.Ingested, events)
				}
				if st.Processed != st.Emitted {
					t.Fatalf("processed %d of %d accepted deliveries", st.Processed, st.Emitted)
				}
				logged := eng.LostEvents().Totals()
				if got := logged[engine.LossOverflow.String()]; got != st.LostOverflow || eng.LostEvents().Total() != st.LostOverflow {
					t.Fatalf("lost log %v does not match %d overflow drops", logged, st.LostOverflow)
				}
			})
		}
	}
}
