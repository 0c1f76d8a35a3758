package muppet_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"muppet"
	"muppet/internal/core"
)

// keyCountApp counts S1 events per key in a decimal slate under the one
// updater U.
func keyCountApp() *muppet.App {
	u := muppet.UpdateFunc{FName: "U", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return muppet.NewApp("keycount").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// TestCrashSlatesEqualReferenceOverUnloggedEvents checks the §4.3
// contract end to end on both engines: a machine killed mid-stream
// loses its queued events and the sends that reach it before detection,
// every one of them is in the lost-event log, and nothing is delivered
// twice — so after the failover every slate is the reference executor's
// fold of exactly the ingested events the log does not hold.
// Write-through flushing leaves no dirty slate to lose.
func TestCrashSlatesEqualReferenceOverUnloggedEvents(t *testing.T) {
	const keys, events, victim = 64, 6_000, "machine-01"
	rng := rand.New(rand.NewSource(7))
	evs := make([]muppet.Event, events)
	for i := range evs {
		// TS is unique per event: it names the event in the lost log.
		evs[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", rng.Intn(keys))}
	}
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{{"engine1", muppet.EngineV1}, {"engine2", muppet.EngineV2}} {
		t.Run(tc.name, func(t *testing.T) {
			store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true})
			eng, err := muppet.NewEngine(keyCountApp(), muppet.Config{
				Engine: tc.version, Machines: 4, WorkersPerFunction: 4, ThreadsPerMachine: 2,
				Store: store, StoreLevel: muppet.Quorum, FlushPolicy: muppet.WriteThrough,
				QueueCapacity: 1 << 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			for i, ev := range evs {
				if i == events/2 {
					if _, dirty := eng.CrashMachine(victim); dirty != 0 {
						t.Fatalf("crash lost %d dirty slates under write-through", dirty)
					}
				}
				eng.Ingest(ev)
			}
			eng.Drain()

			st := eng.RecoveryStatus()
			if st.Failovers != 1 || st.LastFailover == nil || !st.LastFailover.Detected {
				t.Fatalf("failovers = %d, last = %+v: the sends after the crash did not detect it", st.Failovers, st.LastFailover)
			}
			if st.DirtyLost != 0 {
				t.Fatalf("%d dirty slates lost under write-through", st.DirtyLost)
			}
			lost := eng.LostEvents()
			recent := lost.Recent()
			if uint64(len(recent)) != lost.Total() {
				t.Fatalf("lost log holds %d of %d losses; the test must stay under its retention", len(recent), lost.Total())
			}
			if len(recent) == 0 {
				t.Fatal("a mid-stream crash lost no event")
			}
			t.Logf("losses by reason: %v", lost.ByReason())
			dropped := make(map[muppet.Timestamp]bool, len(recent))
			for _, le := range recent {
				dropped[le.Ev.TS] = true
			}
			ref := core.NewReference(keyCountApp())
			for _, ev := range evs {
				if !dropped[ev.TS] {
					ref.Push(ev)
				}
			}
			if _, err := ref.Run(); err != nil {
				t.Fatal(err)
			}
			diverged := 0
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("k%d", k)
				if got, want := string(eng.Slate("U", key)), string(ref.Slate("U", key)); got != want {
					diverged++
					t.Errorf("slate %s = %q, reference over the unlogged events %q", key, got, want)
				}
			}
			if diverged > 0 {
				t.Fatalf("%d of %d slates diverge (%d events logged lost)", diverged, keys, len(recent))
			}
		})
	}
}
