package muppet_test

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet"
	"muppet/internal/cluster"
	"muppet/internal/engine"
)

// The per-destination emit outbox on real TCP clusters: worker emits
// that cross nodes under a hostile network, a destination that dies
// with its senders' outboxes loaded, and Drain/Stop over queued emits.
// (The chaos soak's netCounterApp routes sources straight to the
// updater, so its only remote traffic is ingress; here a map function
// sits in between and its emits ride the outboxes.)

// seqApp is S1 -> M1 -> S2 -> U1: the source stamps each key's events
// with increasing sequence numbers, M1 forwards them, and U1 keeps
// "count,last" per key, flagging any sequence number that does not
// exceed the last one it saw — a reordered or double-applied emit.
type seqApp struct {
	outOfOrder atomic.Int64
	firstBad   atomic.Value // string
}

func (s *seqApp) build() *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	u1 := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		count, last := 0, -1
		if sl != nil {
			fmt.Sscanf(string(sl), "%d,%d", &count, &last)
		}
		seq, _ := strconv.Atoi(string(in.Value))
		if seq <= last {
			s.outOfOrder.Add(1)
			s.firstBad.CompareAndSwap(nil, fmt.Sprintf("key %s: seq %d after %d", in.Key, seq, last))
		}
		emit.ReplaceSlate([]byte(fmt.Sprintf("%d,%d", count+1, max(seq, last))))
	}}
	return muppet.NewApp("seq").Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, nil, 0)
}

// updatesApplied sums U1's per-key counts, read through one node
// (locally when it owns the key, through the shared store otherwise).
func updatesApplied(t *testing.T, eng muppet.Engine, keys []string) int {
	t.Helper()
	sum := 0
	for _, k := range keys {
		sl := eng.Slate("U1", k)
		if sl == nil {
			continue
		}
		var count, last int
		if _, err := fmt.Sscanf(string(sl), "%d,%d", &count, &last); err != nil {
			t.Fatalf("slate %s unreadable: %q", k, sl)
		}
		sum += count
	}
	return sum
}

// lostTo counts a node's lost-log entries addressed to one function.
func lostTo(eng muppet.Engine, fn string) (n int) {
	for _, le := range eng.LostEvents().Recent() {
		if le.Func == fn {
			n++
		}
	}
	return n
}

// drainWithin settles a three-node cluster (an emit can cross two
// nodes, so two drainAll passes) or fails the test at the deadline.
func drainWithin(t *testing.T, nodes map[string]muppet.Engine, d time.Duration) {
	t.Helper()
	settled := make(chan struct{})
	go func() { drainAll(nodes); drainAll(nodes); close(settled) }()
	select {
	case <-settled:
	case <-time.After(d):
		t.Fatalf("cluster did not drain within %v", d)
	}
}

// outboxDepth reads the deliveries eng has queued toward machine from
// its registry (muppet_outbox_depth).
func outboxDepth(t *testing.T, eng muppet.Engine, machine string) int {
	t.Helper()
	return int(metric(t, eng, "muppet_outbox_depth", "machine", machine))
}

// TestChaosWorkerEmitsKeepOrderAndAccounting is invariant test (b):
// three nodes, one thread each (so the order under test is the wire's,
// not the dual queue's), every node's transport under the soak's seeded
// fault schedule, and a partition window on machine-01 -> machine-02
// long enough to exhaust two consecutive frames.
func TestChaosWorkerEmitsKeepOrderAndAccounting(t *testing.T) {
	members := []string{"machine-00", "machine-01", "machine-02"}
	var app seqApp
	nodes := startChaosApp(t, app.build, 1, members, func(node string) *muppet.ChaosConfig {
		cfg := soakChaosConfig()
		if node == "machine-01" {
			// Twelve attempt ticks against a 6-attempt budget: two
			// consecutive emit frames exhaust, the second carrying
			// everything that queued while the first was retrying. Two
			// strikes are below K = 3 — but only if a frame is one strike.
			cfg.Partitions = []muppet.ChaosPartition{{Machine: "machine-02", From: 10, To: 22}}
		}
		return cfg
	})
	a := nodes["machine-00"]

	// One source, at machine-00; each key's sequence numbers rise. Half
	// the keys are picked to be mapped on machine-01 and updated on
	// machine-02, so the partitioned link carries half the emits.
	const nKeys, total, batch = 48, 6000, 16
	ring := a.(interface{ MachineFor(fn, key string) string })
	var hot, cold []string
	for i := 0; len(hot) < nKeys/2 || len(cold) < nKeys/2; i++ {
		k := fmt.Sprintf("k%03d", i)
		onLink := ring.MachineFor("M1", k) == "machine-01" && ring.MachineFor("U1", k) == "machine-02"
		if onLink && len(hot) < nKeys/2 {
			hot = append(hot, k)
		} else if !onLink && len(cold) < nKeys/2 {
			cold = append(cold, k)
		}
	}
	keys := append(hot, cold...)
	offered, accepted := 0, 0
	for offered < total {
		evs := make([]muppet.Event, batch)
		for j := range evs {
			evs[j] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(offered + 1), Key: keys[offered%nKeys],
				Value: []byte(strconv.Itoa(offered / nKeys))}
			offered++
		}
		n, _ := a.IngestBatch(evs)
		accepted += n
	}
	drainWithin(t, nodes, 60*time.Second)

	// Order: per key, strictly increasing at the updater.
	if n := app.outOfOrder.Load(); n != 0 {
		t.Fatalf("%d emits arrived out of order or twice; first: %v", n, app.firstBad.Load())
	}

	// Accounting. Every source event not acknowledged is logged against
	// M1 at the ingesting node; every emit not delivered is logged
	// against U1 at the emitting node; nothing else is lost, and the only
	// reason is the network.
	ingressLost := lostTo(a, "M1")
	if accepted+ingressLost != offered {
		t.Fatalf("accepted %d + logged ingress losses %d != offered %d", accepted, ingressLost, offered)
	}
	emitLost, indeterminate := 0, 0
	for name, e := range nodes {
		emitLost += lostTo(e, "U1")
		indeterminate += int(e.Cluster().DeliveryStats().IndeterminateLost)
		for reason, c := range e.LostEvents().Totals() {
			if reason != engine.LossTransient.String() {
				t.Errorf("%s: %d deliveries lost to %q; only transient-network losses are expected", name, c, reason)
			}
		}
		st := e.RecoveryStatus()
		if st.Failovers != 0 || st.Escalations != 0 {
			t.Errorf("%s: a network blip caused a failover: %+v", name, st)
		}
	}
	// An exhausted frame whose request did land is logged lost yet
	// applied; the delivery layer bounds those exactly.
	sum := updatesApplied(t, a, keys)
	if sum < accepted-emitLost || sum > accepted-emitLost+indeterminate {
		t.Fatalf("updates applied %d, want within [%d, %d] (accepted %d - emits logged lost %d, + outcome-unknown %d)",
			sum, accepted-emitLost, accepted-emitLost+indeterminate, accepted, emitLost, indeterminate)
	}

	// Detection per frame. machine-01 sends nothing but its senders'
	// frames, so its suspicion strikes must equal its exhausted frames —
	// while those frames carried well over K deliveries between them.
	b := nodes["machine-01"]
	chB := cluster.UnwrapChaos(b.Cluster().Transport())
	if chB.Stats().PartitionDrops == 0 {
		t.Fatal("scripted partition window never fired")
	}
	st, ds := b.RecoveryStatus(), b.Cluster().DeliveryStats()
	lostB := lostTo(b, "U1")
	if ds.RetryExhausted < 2 || st.TransientFails != ds.RetryExhausted {
		t.Fatalf("machine-01: %d suspicion strikes for %d exhausted frames (want equal, >= 2)", st.TransientFails, ds.RetryExhausted)
	}
	if lostB < 2*st.SuspicionK {
		t.Fatalf("machine-01's exhausted frames carried %d deliveries; the test needs >= %d to prove a frame is one strike", lostB, 2*st.SuspicionK)
	}
	var frames, carried float64
	for _, e := range nodes {
		lines := scrapeMetrics(t, e)
		frames += lines["muppet_outbox_frames_total"]
		carried += lines["muppet_outbox_deliveries_total"]
	}
	t.Logf("offered=%d accepted=%d applied=%d emit_lost=%d indeterminate=%d outbox_frames=%.0f outbox_deliveries=%.0f strikes=%d",
		offered, accepted, sum, emitLost, indeterminate, frames, carried, st.TransientFails)
}

// TestCrashedDestinationCostsSendersAFrameNotTheQueue is invariant test
// (c): machine-02 dies on its node while machine-00's and machine-01's
// outboxes toward it are loaded. Each sender loses what was on the wire,
// logs it, and moves the rest of its queue to the keys' new owners.
func TestCrashedDestinationCostsSendersAFrameNotTheQueue(t *testing.T) {
	members := []string{"machine-00", "machine-01", "machine-02"}
	var app seqApp
	nodes := startNetNodes(t, muppet.EngineV2, app.build, members)
	victim := nodes["machine-02"]

	const perSource = 30000
	var keys []string
	var wg sync.WaitGroup
	crashAt := make(chan struct{})
	for _, src := range members[:2] {
		eng := nodes[src]
		var mine []string
		for i := 0; i < 32; i++ {
			mine = append(mine, fmt.Sprintf("%s-k%02d", src, i))
		}
		keys = append(keys, mine...)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSource; i++ {
				if i == perSource/3 && src == members[0] {
					close(crashAt)
				}
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: mine[i%len(mine)],
					Value: []byte(strconv.Itoa(i / len(mine)))})
			}
		}()
	}
	<-crashAt
	queuedAtCrash := outboxDepth(t, nodes["machine-00"], "machine-02") + outboxDepth(t, nodes["machine-01"], "machine-02")
	recvAtCrash := victim.Cluster().RecvDeliveries()
	victim.CrashMachine("machine-02")
	wg.Wait()
	drainWithin(t, nodes, 60*time.Second)

	// Every delivery not applied is in some node's lost log: the frames
	// on the wire at the senders, the queued events at the victim.
	lost := 0
	for name, e := range nodes {
		lost += int(e.LostEvents().Total())
		for reason := range e.LostEvents().Totals() {
			switch reason {
			case engine.LossMachineDown.String(), engine.LossCrashedQueue.String():
			default:
				t.Errorf("%s: unexpected loss reason %q", name, reason)
			}
		}
	}
	applied := updatesApplied(t, nodes["machine-00"], keys)
	if applied+lost != 2*perSource {
		t.Fatalf("applied %d + logged lost %d != offered %d", applied, lost, 2*perSource)
	}
	// Each surviving node failed over once, and what it lost is frames it
	// had shipped, never its queue. One frame comes back machine-down — a
	// fatal answer, so a single strike fails the machine over and
	// everything queued behind it follows the ring. Before that, every
	// frame that reaches the victim while it is still closing its queues
	// (it logs each queued event lost, waits for its workers, and only
	// then answers machine-down) bounces whole; how many do is a race
	// between the senders and the victim's cleanup, not a constant. But
	// the victim counts what reaches it: the senders cannot have lost more
	// than it received from the crash on, plus the frame each had on the
	// wire when that count was read.
	const frame = 256 // engine.maxFrameDeliveries: the most one frame can lose
	shipped := int(victim.Cluster().RecvDeliveries()-recvAtCrash) + 2*frame
	lostBySenders := 0
	for _, name := range members[:2] {
		e := nodes[name]
		if st := e.RecoveryStatus(); st.Failovers != 1 {
			t.Errorf("%s: %d failovers, want 1", name, st.Failovers)
		}
		n := int(e.LostEvents().Total())
		if n == 0 {
			t.Errorf("%s lost nothing to the dead machine, want at least the machine-down frame", name)
		}
		lostBySenders += n
		if d := outboxDepth(t, e, "machine-02"); d != 0 {
			t.Errorf("%s still holds %d deliveries for the dead machine", name, d)
		}
	}
	if lostBySenders > shipped {
		t.Errorf("senders lost %d deliveries to the dead machine but shipped it at most %d from the crash on (%d were queued toward it)",
			lostBySenders, shipped, queuedAtCrash)
	}
	t.Logf("queued toward the victim at crash: %d; applied=%d lost=%d (senders %d of at most %d shipped)", queuedAtCrash, applied, lost, lostBySenders, shipped)
}

// TestDrainAndStopCoverQueuedEmits is invariant test (d): Drain returns
// only once every queued delivery has been acknowledged by its
// destination, and Stop with deliveries queued sends or logs every one.
func TestDrainAndStopCoverQueuedEmits(t *testing.T) {
	const events, nKeys = 20000, 64
	burst := func(eng muppet.Engine) {
		for i := 0; i < events; i++ {
			eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("r%d", i%nKeys)})
		}
	}
	counted := func(eng muppet.Engine) int {
		sum := 0
		for i := 0; i < nKeys; i++ {
			n, _ := strconv.Atoi(string(eng.Slate("U1", fmt.Sprintf("r%d", i))))
			sum += n
		}
		return sum
	}
	members := []string{"machine-00", "machine-01"}

	t.Run("drain", func(t *testing.T) {
		nodes := startNetNodes(t, muppet.EngineV2, netCounterApp, members)
		a, b := nodes["machine-00"], nodes["machine-01"]
		burst(a)
		a.Drain()
		// Nothing is queued, and b has acknowledged — so has received —
		// everything a's sender shipped.
		shipped := scrapeMetrics(t, a)["muppet_outbox_deliveries_total"]
		if d := outboxDepth(t, a, "machine-01"); d != 0 || shipped == 0 || float64(b.Cluster().RecvDeliveries()) != shipped {
			t.Fatalf("after Drain: %d queued, %v shipped, %d received by the peer", d, shipped, b.Cluster().RecvDeliveries())
		}
		b.Drain()
		if got := counted(a); got != events || a.LostEvents().Total() != 0 {
			t.Fatalf("counted %d of %d, lost %v", got, events, a.LostEvents().Totals())
		}
	})

	t.Run("stop", func(t *testing.T) {
		nodes := startNetNodes(t, muppet.EngineV2, netCounterApp, members)
		a, b := nodes["machine-00"], nodes["machine-01"]
		burst(a)
		a.Stop() // no Drain first: the outbox is still loaded
		b.Drain()
		// b reads its own keys from its cache and a's from the shared
		// store a flushed on the way down.
		if got, lost := counted(b), int(a.LostEvents().Total()); got+lost != events {
			t.Fatalf("counted %d + logged lost %d != %d offered: Stop dropped queued deliveries silently", got, lost, events)
		}
	})
}
