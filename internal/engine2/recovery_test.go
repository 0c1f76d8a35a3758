package engine2

import (
	"fmt"
	"strconv"
	"testing"

	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/slate"
)

// TestRejoinMachineRestoresService drives the full crash → failover →
// rejoin lifecycle: after RejoinMachine the revived machine is back on
// the ring with restarted workers and a warmed cache, and ingestion
// reaches it again without losses.
func TestRejoinMachineRestoresService(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	e, err := New(replayApp(), Config{
		Machines: 4, ThreadsPerMachine: 2,
		Store: store, StoreLevel: kvstore.Quorum, FlushPolicy: slate.WriteThrough,
		QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	const victim = "machine-03"
	const keys = 40
	want := map[string]int{}
	ingest := func(rounds int) {
		for i := 0; i < rounds*keys; i++ {
			key := fmt.Sprintf("k%d", i%keys)
			want[key]++
			e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(len(want) + i), Key: key})
		}
	}

	ingest(20)
	e.Drain()
	e.CrashMachine(victim)
	ingest(20) // detection happens on the first send to the victim
	e.Drain()

	rep, err := e.RejoinMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Restarted {
		t.Fatal("rejoin did not restart the victim's workers")
	}
	if rep.Warmed == 0 {
		t.Fatal("rejoin warmed no slates despite a populated store")
	}

	st := e.RecoveryStatus()
	for _, ms := range st.Machines {
		if ms.Name == victim && (!ms.Alive || !ms.InRing || ms.Failed) {
			t.Fatalf("victim status after rejoin = %+v", ms)
		}
	}
	if st.Rejoins != 1 {
		t.Fatalf("rejoins = %d, want 1", st.Rejoins)
	}

	// Traffic reaches the rejoined machine again with no new losses.
	lostBefore := e.Stats().LostMachineDown
	ingest(20)
	e.Drain()
	if lost := e.Stats().LostMachineDown; lost != lostBefore {
		t.Fatalf("deliveries lost after rejoin: %d -> %d", lostBefore, lost)
	}
	victimOwns := false
	for k := range want {
		if e.MachineFor("U", k) == victim {
			victimOwns = true
			break
		}
	}
	if !victimOwns {
		t.Fatal("rejoined machine owns no keys")
	}

	// Full accounting: every ingested event is either counted in a
	// slate or in the lost log (write-through store, so no dirty loss).
	counted := 0
	for k := range want {
		if sl := e.Slate("U", k); sl != nil {
			n, _ := strconv.Atoi(string(sl))
			counted += n
		}
	}
	total := 0
	for _, w := range want {
		total += w
	}
	lost := int(e.Stats().LostMachineDown) + int(e.RecoveryStatus().QueuedLost)
	if counted+lost != total {
		t.Fatalf("counted %d + lost %d != ingested %d", counted, lost, total)
	}
}
