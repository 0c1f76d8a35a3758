// Command failover demonstrates the unified recovery subsystem end to
// end — crash, master-coordinated failover, rejoin — twice:
//
//  1. Stock Muppet (Section 4.3 semantics): a machine dies mid-stream
//     without warning; the first failed send reports it to the master,
//     whose broadcast drives the failover — the ring reroutes, queued
//     events are lost (and logged), dirty slates die with the cache —
//     and counting resumes from the state persisted in the replicated
//     slate store, the one durability a flushed slate has.
//  2. With the replay-log extension (the §4.3 future-work item): the
//     same organic crash and detection, but the failover redelivers
//     the dead machine's unacknowledged backlog to the keys' new
//     owners, so no counts are lost.
//
// Both runs finish by rejoining the dead machine: workers restart, the
// master broadcasts the new ring, and the machine's slate cache is
// warmed from the backing store before traffic returns to it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
)

import (
	"muppet"
	"muppet/muppetapps"
)

func main() {
	events := flag.Int("events", 30_000, "checkins to stream")
	victim := flag.String("victim", "machine-02", "machine to crash mid-stream")
	flag.Parse()

	for _, replay := range []bool{false, true} {
		mode := "stock (Section 4.3 semantics)"
		if replay {
			mode = "with replay log (future-work extension)"
		}
		fmt.Printf("=== %s ===\n", mode)
		run(*events, *victim, replay)
		fmt.Println()
	}
}

func run(n int, victim string, replay bool) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, UseSSD: true})
	eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
		Machines:      6,
		Store:         store,
		StoreLevel:    muppet.Quorum,
		FlushPolicy:   muppet.WriteThrough,
		QueueCapacity: 1 << 15,
		ReplayLog:     replay,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 2012, RetailerFraction: 1})
	expected, reported := 0, 0
	for i := 0; i < n; i++ {
		ev := gen.Checkin("S1")
		c, _ := muppetapps.ParseCheckin(ev.Value)
		if _, ok := muppetapps.CanonicalRetailer(c.Venue); ok {
			expected++
		}
		// The context-aware ingress reports deliveries the machine
		// failure drops — losses the legacy fire-and-forget Ingest
		// only counted internally.
		if err := eng.IngestCtx(context.Background(), ev); err != nil {
			reported++
		}
		switch i {
		case n / 3:
			// The machine dies without ceremony — no operator cleanup.
			// The next send to it fails, the detector reports to the
			// master, and the broadcast drives the full failover:
			// queues drained, slates crashed once any group commit under
			// way is stored, ring rerouted, and (in replay mode) the
			// backlog redelivered to the new owners.
			eng.Cluster().Crash(victim)
			fmt.Printf("killed %s mid-stream; detection is on the next send\n", victim)
		case 2 * n / 3:
			// Machine repaired: rejoin the ring with a warmed cache.
			rep, err := eng.RejoinMachine(victim)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("rejoined %s: workers restarted=%v, %d slates warmed from the store in %v\n",
				victim, rep.Restarted, rep.Warmed, rep.Took.Round(1000))
		}
	}
	eng.Drain()

	counted := 0
	for _, r := range muppetapps.RetailerSet() {
		counted += muppetapps.Count(eng.Slate("U1", r))
	}
	st := eng.Stats()
	rst := eng.RecoveryStatus()
	fmt.Printf("recognized checkins streamed: %d; counted in slates: %d; deficit: %d\n",
		expected, counted, expected-counted)
	fmt.Printf("ingress errors reported to the source: %d\n", reported)
	if fo := rst.LastFailover; fo != nil {
		fmt.Printf("failover of %s: detected=%v queuedLost=%d dirtyLost=%d redelivered=%d\n",
			fo.Machine, fo.Detected, fo.QueuedLost, fo.DirtyLost, fo.Redelivered)
	}
	fmt.Printf("recovery: failovers=%d rejoins=%d sendFailuresObserved=%d slatesWarmed=%d\n",
		rst.Failovers, rst.Rejoins, rst.SendFailures, rst.Warmed)
	fmt.Printf("lost-event log: total=%d by-reason=%v\n",
		eng.LostEvents().Total(), eng.LostEvents().ByReason())
	fmt.Printf("engine stats: processed=%d lostMachineDown=%d failureReports=%d\n",
		st.Processed, st.LostMachineDown, st.FailureReports)
}
