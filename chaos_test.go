package muppet_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"muppet"
	"muppet/internal/cluster"
	"muppet/internal/engine"
)

// Chaos soak: a real TCP cluster under seeded network fault injection —
// dropped requests, lost responses, duplicated batches, flaky dials,
// injected delays, a scripted one-way partition — plus one genuine
// crash/failover/rejoin in the middle. The bar is the paper's exact
// accounting under a hostile network: every event the cluster
// acknowledged lands in a slate exactly once, every event it did not
// acknowledge is reported to the caller and logged as lost, and the
// two sets partition the offered workload with nothing in between.

// startChaosNodes is startNetNodes with the resilient-delivery knobs
// turned on and a per-node chaos layer wrapped around the transport.
func startChaosNodes(t *testing.T, members []string, chaosFor func(node string) *muppet.ChaosConfig) map[string]muppet.Engine {
	return startChaosApp(t, netCounterApp, 0, members, chaosFor)
}

// startChaosApp is startChaosNodes for any application; threads sets
// ThreadsPerMachine (0 keeps the default).
func startChaosApp(t *testing.T, app func() *muppet.App, threads int, members []string, chaosFor func(node string) *muppet.ChaosConfig) map[string]muppet.Engine {
	t.Helper()
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	started := bindNodes(t, members, func(m string, nc *muppet.NetworkConfig) (muppet.Engine, error) {
		nc.IOTimeout = 2 * time.Second
		// A retry budget comfortably above the chaos layer's
		// MaxFaultsPerDelivery, so every batch that is not partitioned
		// away eventually gets a clean exchange.
		nc.SendRetries = 6
		nc.Chaos = chaosFor(m)
		return muppet.NewEngine(app(), muppet.Config{
			ThreadsPerMachine: threads,
			QueueCapacity:     1 << 14,
			FlushPolicy:       muppet.WriteThrough,
			Store:             store,
			StoreLevel:        muppet.One,
			Network:           nc,
		})
	})
	nodes := make(map[string]muppet.Engine, len(members))
	for i, m := range members {
		nodes[m] = started[i]
		t.Cleanup(started[i].Stop)
	}
	return nodes
}

func soakChaosConfig() *muppet.ChaosConfig {
	return &muppet.ChaosConfig{
		Seed:                 2012,
		FlakyDial:            0.04,
		DropRequest:          0.06,
		DropResponse:         0.08,
		Duplicate:            0.08,
		Delay:                0.25,
		MaxDelay:             time.Millisecond,
		MaxFaultsPerDelivery: 2,
	}
}

// chaosSummary is what one soak run amounts to. The fault schedule is
// seeded, so two runs of the same code produce equal summaries; a
// drifting counter means the delivery pipeline changed behaviour, not
// that the network got unlucky.
type chaosSummary struct {
	Offered, Accepted, Applied, Lost, Indeterminate       int
	Injected, Retries, TransientErrors, Exhausted, Dedups uint64
	Failovers                                             uint64
}

func TestChaosSoakExactAccounting(t *testing.T) { runChaosSoak(t) }

// TestChaosSoakDeterministic runs the soak twice: equal summaries, or
// the seeded schedule stopped deciding what the pipeline does.
func TestChaosSoakDeterministic(t *testing.T) {
	var runs [2]chaosSummary
	for i := range runs {
		t.Run(fmt.Sprintf("run%d", i), func(t *testing.T) { runs[i] = runChaosSoak(t) })
	}
	if runs[0] != runs[1] {
		t.Fatalf("seeded soak produced diverging counters:\n%+v\n%+v", runs[0], runs[1])
	}
}

// runChaosSoak runs the soak with every exact-accounting assertion and
// returns (and logs as CHAOS_SUMMARY) its counters.
func runChaosSoak(t *testing.T) chaosSummary {
	members := []string{"machine-00", "machine-01"}
	nodes := startChaosNodes(t, members, func(node string) *muppet.ChaosConfig {
		cfg := soakChaosConfig()
		if node == "machine-00" {
			// One scripted one-way outage: machine-00's sends toward
			// machine-01 drop while its per-destination attempt count is
			// in [80, 92). Twelve attempt ticks against a 6-attempt
			// retry budget: at most two consecutive sends exhaust, below
			// the suspicion threshold, so the blip must NOT fail the
			// machine over — only (reported) per-event losses.
			cfg.Partitions = []muppet.ChaosPartition{{Machine: "machine-01", From: 80, To: 92}}
		}
		return cfg
	})
	a, b := nodes["machine-00"], nodes["machine-01"]

	const keys = 16
	offered, accepted := 0, 0
	ingest := func(eng muppet.Engine, i int) {
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(offered + 1), Key: fmt.Sprintf("r%d", i%keys)}
		offered++
		n, err := eng.IngestBatch([]muppet.Event{ev})
		if err == nil && n != 1 {
			t.Fatalf("ingest returned n=%d with nil error", n)
		}
		accepted += n
	}

	// Phase 1: soak through the fault schedule (including the scripted
	// partition window) from both nodes.
	for i := 0; i < 400; i++ {
		eng := a
		if i%2 == 1 {
			eng = b
		}
		ingest(eng, i)
	}
	drainAll(nodes)

	// The chaos layer must actually have been hostile.
	chA := cluster.UnwrapChaos(a.Cluster().Transport())
	chB := cluster.UnwrapChaos(b.Cluster().Transport())
	if chA == nil || chB == nil {
		t.Fatal("chaos transport not wired")
	}
	if chA.Stats().Injected() == 0 || chB.Stats().Injected() == 0 {
		t.Fatalf("no faults injected: a=%+v b=%+v", chA.Stats(), chB.Stats())
	}
	if chA.Stats().PartitionDrops == 0 {
		t.Fatal("scripted partition window never fired")
	}
	// Every chaos count is a /metrics family, so none is observable only
	// through ChaosStats.
	for _, name := range []string{"muppet_chaos_attempts_total", "muppet_chaos_flaky_dials_total",
		"muppet_chaos_delays_total", "muppet_chaos_clean_passes_total"} {
		if metric(t, a, name, "transport", "chaos+tcp")+metric(t, b, name, "transport", "chaos+tcp") == 0 {
			t.Errorf("%s stayed zero through the soak", name)
		}
	}
	// A transient blip alone must never fail a machine over.
	if st := a.RecoveryStatus(); st.Failovers != 0 || st.Escalations != 0 {
		t.Fatalf("phase 1 caused failover: %+v", st)
	}

	// Phase 2: one genuine crash. Everything is drained and
	// write-through flushed, so the crash itself loses nothing; the
	// surviving node's sends then discover the death through the chaos
	// layer and fail over.
	var kB string
	for k := range b.Slates("U1") {
		kB = k
		break
	}
	if kB == "" {
		t.Fatal("machine-01 owns no keys; cannot exercise failover")
	}
	if lostQ, lostD := b.CrashMachine("machine-01"); lostQ != 0 || lostD != 0 {
		t.Fatalf("crash after drain lost %d queued, %d dirty", lostQ, lostD)
	}
	const interim = 20
	acceptedInterim, droppedInterim := 0, 0
	for i := 0; acceptedInterim < interim; i++ {
		if i >= 2000 {
			t.Fatalf("failover never completed: %d accepted, %d dropped", acceptedInterim, droppedInterim)
		}
		before := accepted
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(offered + 1), Key: kB}
		offered++
		n, _ := a.IngestBatch([]muppet.Event{ev})
		accepted += n
		if accepted > before {
			acceptedInterim++
		} else {
			droppedInterim++
		}
	}
	if droppedInterim == 0 {
		t.Fatal("no send observed the dead machine")
	}
	a.Drain()
	if st := a.RecoveryStatus(); st.Failovers == 0 {
		t.Fatalf("no failover recorded after real crash: %+v", st)
	}

	// Rejoin: hosting node first, then the sender's presumption.
	if _, err := b.RejoinMachine("machine-01"); err != nil {
		t.Fatalf("rejoin on hosting node: %v", err)
	}
	if _, err := a.RejoinMachine("machine-01"); err != nil {
		t.Fatalf("rejoin on sender node: %v", err)
	}

	// Phase 3: keep soaking after the rejoin, from both nodes.
	for i := 0; i < 200; i++ {
		eng := a
		if i%2 == 1 {
			eng = b
		}
		ingest(eng, i)
	}
	drainAll(nodes)

	// Exact accounting. Every key's final count is read once through
	// node a (locally when owned, through the shared durable store
	// otherwise); their sum must equal the acknowledged events exactly,
	// up to the one honest ambiguity of bounded retries: a batch whose
	// request landed but whose every chance at an answer was faulted
	// away (a lost response straight into the partition window) is
	// reported lost by the sender yet applied by the receiver. The
	// delivery layer counts exactly those events in IndeterminateLost,
	// so the overshoot is bounded — a lost acknowledged event would
	// leave the sum short of accepted, and a double-applied duplicate
	// would push it past accepted + indeterminate.
	sum := 0
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("r%d", i)
		v := string(a.Slate("U1", k))
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("slate %s unreadable: %q", k, v)
		}
		sum += n
	}
	dsA, dsB := a.Cluster().DeliveryStats(), b.Cluster().DeliveryStats()
	indeterminate := int(dsA.IndeterminateLost + dsB.IndeterminateLost)
	if sum < accepted {
		t.Fatalf("slate counts sum to %d, below %d acknowledged: acknowledged events were lost", sum, accepted)
	}
	if sum > accepted+indeterminate {
		t.Fatalf("slate counts sum to %d, above %d acknowledged + %d outcome-unknown: events were double-applied", sum, accepted, indeterminate)
	}

	// Loss reconciliation: every unacknowledged event was logged as
	// lost, with a reason, on the node that ingested it — acknowledged
	// plus logged-lost partitions the offered workload.
	lost := a.LostEvents().Total() + b.LostEvents().Total()
	if accepted+int(lost) != offered {
		t.Fatalf("accepted %d + lost %d != offered %d", accepted, lost, offered)
	}
	totalsA, totalsB := a.LostEvents().Totals(), b.LostEvents().Totals()
	var tallied uint64
	for _, m := range []map[string]uint64{totalsA, totalsB} {
		for reason, n := range m {
			switch reason {
			case engine.LossTransient.String(), engine.LossMachineDown.String():
				tallied += n
			default:
				t.Errorf("unexpected loss reason %q (%d events)", reason, n)
			}
		}
	}
	if tallied != lost {
		t.Fatalf("loss totals tally %d, want %d", tallied, lost)
	}

	if dsA.Retries+dsB.Retries == 0 {
		t.Fatal("soak exercised no retries")
	}
	if dsA.DedupHits+dsB.DedupHits == 0 {
		t.Fatal("soak exercised no dedup absorption (lost responses / duplicates)")
	}
	sm := chaosSummary{
		Offered: offered, Accepted: accepted, Applied: sum, Lost: int(lost), Indeterminate: indeterminate,
		Injected:        chA.Stats().Injected() + chB.Stats().Injected(),
		Retries:         dsA.Retries + dsB.Retries,
		TransientErrors: dsA.TransientErrors + dsB.TransientErrors,
		Exhausted:       dsA.RetryExhausted + dsB.RetryExhausted,
		Dedups:          dsA.DedupHits + dsB.DedupHits,
		Failovers:       a.RecoveryStatus().Failovers,
	}
	t.Logf("CHAOS_SUMMARY offered=%d accepted=%d applied=%d lost=%d indeterminate=%d injected=%d retries=%d transient_errors=%d exhausted=%d dedup_hits=%d failovers=%d",
		sm.Offered, sm.Accepted, sm.Applied, sm.Lost, sm.Indeterminate, sm.Injected,
		sm.Retries, sm.TransientErrors, sm.Exhausted, sm.Dedups, sm.Failovers)
	return sm
}

// TestTransientBlipDoesNotFailover pins the regression this PR exists
// to prevent: before retried delivery and failure suspicion, a single
// transient network blip on a send surfaced as machine-down and tore a
// healthy machine out of the ring. Now the send retries through the
// blip, the event lands, and no failover fires.
func TestTransientBlipDoesNotFailover(t *testing.T) {
	members := []string{"machine-00", "machine-01"}
	nodes := startChaosNodes(t, members, func(node string) *muppet.ChaosConfig {
		if node != "machine-00" {
			return nil
		}
		// machine-00's first two attempts toward machine-01 vanish into
		// a one-way partition; the third lands. No probabilistic faults.
		return &muppet.ChaosConfig{
			Seed:       7,
			Partitions: []muppet.ChaosPartition{{Machine: "machine-01", From: 0, To: 2}},
		}
	})
	a, b := nodes["machine-00"], nodes["machine-01"]

	// Find a key machine-01 owns by seeding through its own node (local
	// deliveries never touch machine-00's chaos layer).
	var kB string
	for i := 0; kB == ""; i++ {
		if i >= 64 {
			t.Fatal("no key routed to machine-01")
		}
		k := fmt.Sprintf("blip-%d", i)
		if n, err := b.IngestBatch([]muppet.Event{{Stream: "S1", TS: 1, Key: k}}); err != nil || n != 1 {
			t.Fatalf("seed ingest: n=%d err=%v", n, err)
		}
		b.Drain()
		if _, owned := b.Slates("U1")[k]; owned {
			kB = k
		}
	}

	// The remote send from machine-00 hits the partition twice and must
	// come through on the retry — accepted, not failed over.
	n, err := a.IngestBatch([]muppet.Event{{Stream: "S1", TS: 2, Key: kB}})
	if err != nil || n != 1 {
		t.Fatalf("blipped send not delivered: n=%d err=%v", n, err)
	}
	drainAll(nodes)

	if got := string(b.Slate("U1", kB)); got != "2" {
		t.Fatalf("slate %s = %q, want 2", kB, got)
	}
	ds := a.Cluster().DeliveryStats()
	if ds.Retries < 2 || ds.TransientErrors < 2 {
		t.Fatalf("blip not retried: %+v", ds)
	}
	if ds.RetryExhausted != 0 {
		t.Fatalf("retry budget exhausted on a 2-attempt blip: %+v", ds)
	}
	st := a.RecoveryStatus()
	if st.Failovers != 0 || st.Escalations != 0 {
		t.Fatalf("single transient blip triggered failover: %+v", st)
	}
	if !a.Cluster().Machine("machine-01").Alive() {
		t.Fatal("machine-01 presumed down after a recovered blip")
	}
	if a.LostEvents().Total() != 0 {
		t.Fatalf("recovered blip logged losses: %v", a.LostEvents().Totals())
	}
}
