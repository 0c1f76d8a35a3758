// Cross-engine lifecycle tests: both Muppet engines drive the same
// recovery subsystem through the public API — crash, detect-on-send
// failover, rejoin with cache warm-up — with full loss accounting.
package recovery_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"muppet"
)

func countApp() *muppet.App {
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := muppet.NewApp("recovery-lifecycle").Input("S1")
	app.AddUpdate(u, []string{"S1"}, nil, 0)
	return app
}

func testLifecycle(t *testing.T, version muppet.EngineVersion) {
	t.Helper()
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng, err := muppet.NewEngine(countApp(), muppet.Config{
		Engine: version, Machines: 5,
		Store: store, StoreLevel: muppet.Quorum, FlushPolicy: muppet.WriteThrough,
		QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	const victim = "machine-02"
	const keys = 60
	total := 0
	ingest := func(rounds int) {
		for i := 0; i < rounds*keys; i++ {
			eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(total + 1), Key: fmt.Sprintf("k%d", i%keys)})
			total++
		}
	}

	// Healthy operation, then an operator kill; detection happens on
	// the first send to the dead machine and the master-coordinated
	// failover reroutes its keys.
	ingest(10)
	eng.Drain()
	lostQ, lostDirty := eng.CrashMachine(victim)
	if lostQ != 0 || lostDirty != 0 {
		t.Fatalf("drained write-through engine lost %d queued / %d dirty", lostQ, lostDirty)
	}
	ingest(10)
	eng.Drain()

	st := eng.RecoveryStatus()
	if st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
	for _, ms := range st.Machines {
		if ms.Name == victim && (ms.Alive || ms.InRing || !ms.Failed) {
			t.Fatalf("victim status after failover = %+v", ms)
		}
	}
	if eng.Stats().LostMachineDown == 0 {
		t.Fatal("no deliveries recorded lost while the machine was down")
	}

	// Rejoin: workers restart, the ring re-enables the machine, and its
	// slate cache is warmed from the durable store.
	rep, err := eng.RejoinMachine(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Restarted {
		t.Fatal("rejoin did not restart workers")
	}
	if rep.Warmed == 0 {
		t.Fatal("rejoin warmed no slates despite a populated store")
	}
	st = eng.RecoveryStatus()
	for _, ms := range st.Machines {
		if ms.Name == victim && (!ms.Alive || !ms.InRing || ms.Failed) {
			t.Fatalf("victim status after rejoin = %+v", ms)
		}
	}

	// Service is fully restored: no further losses.
	lostBefore := eng.Stats().LostMachineDown
	ingest(10)
	eng.Drain()
	if lost := eng.Stats().LostMachineDown; lost != lostBefore {
		t.Fatalf("deliveries lost after rejoin: %d -> %d", lostBefore, lost)
	}

	// Precise accounting: every ingested event was either counted in a
	// slate or logged as lost (write-through leaves no dirty loss).
	counted := 0
	for i := 0; i < keys; i++ {
		if sl := eng.Slate("U1", fmt.Sprintf("k%d", i)); sl != nil {
			n, _ := strconv.Atoi(string(sl))
			counted += n
		}
	}
	lost := int(eng.Stats().LostMachineDown) + int(eng.RecoveryStatus().QueuedLost)
	if counted+lost != total {
		t.Fatalf("counted %d + lost %d != ingested %d", counted, lost, total)
	}
}

func TestEngine1RecoveryLifecycle(t *testing.T) { testLifecycle(t, muppet.EngineV1) }
func TestEngine2RecoveryLifecycle(t *testing.T) { testLifecycle(t, muppet.EngineV2) }

// TestMidStreamCrashRejoinExactAccounting crashes AND rejoins without
// ever draining, under continuous ingest: every ingested event must
// still end up either counted in a slate or in the lost log. This
// pins the rejoin quiesce — without it, the ring flips back while the
// interim owners hold queued events for the moved keys, two writers
// race on the same slates, and the interim owners' tail of updates is
// silently lost.
func TestMidStreamCrashRejoinExactAccounting(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng, err := muppet.NewEngine(countApp(), muppet.Config{
		Machines: 6, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 12000
	const keys = 30
	const victim = "machine-02"
	for i := 0; i < n; i++ {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%keys)})
		switch i {
		case n / 3:
			eng.CrashMachine(victim)
		case 2 * n / 3:
			if _, err := eng.RejoinMachine(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Drain()
	counted := 0
	for i := 0; i < keys; i++ {
		if sl := eng.Slate("U1", fmt.Sprintf("k%d", i)); sl != nil {
			v, _ := strconv.Atoi(string(sl))
			counted += v
		}
	}
	lost := int(eng.Stats().LostMachineDown) + int(eng.RecoveryStatus().QueuedLost)
	if counted+lost != n {
		t.Fatalf("counted %d + lost %d != ingested %d (unaccounted loss across crash/rejoin)", counted, lost, n)
	}
}

// TestConcurrentIngestAcrossCrashAndRejoin runs the whole lifecycle
// with ingestion on a separate goroutine, so the crash, the failover,
// and the rejoin handover all race live traffic. Every event must be
// counted in a slate or logged as lost, up to the protocol's one
// irreducible window: an update that is mid-process at an interim
// owner in the instant the ring flips back can race the rejoined
// machine on the same slate and lose one increment. That window is
// bounded by one in-process event per worker thread; anything beyond
// it (queued events, deliveries in flight, dirty cache state) must be
// rerouted, flushed, or accounted — never silently dropped.
func TestConcurrentIngestAcrossCrashAndRejoin(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng, err := muppet.NewEngine(countApp(), muppet.Config{
		Machines: 6, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 9000
	const keys = 30
	const victim = "machine-01"
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%keys)})
		}
	}()
	time.Sleep(5 * time.Millisecond)
	eng.CrashMachine(victim)
	time.Sleep(5 * time.Millisecond)
	if _, err := eng.RejoinMachine(victim); err != nil {
		t.Fatal(err)
	}
	<-done
	eng.Drain()
	counted := 0
	for i := 0; i < keys; i++ {
		if sl := eng.Slate("U1", fmt.Sprintf("k%d", i)); sl != nil {
			v, _ := strconv.Atoi(string(sl))
			counted += v
		}
	}
	lost := int(eng.Stats().LostMachineDown) + int(eng.RecoveryStatus().QueuedLost)
	missing := n - counted - lost
	const maxInProcess = 6 * 4 // machines x default threads per machine
	if missing < 0 || missing > maxInProcess {
		t.Fatalf("counted %d + lost %d vs ingested %d: %d events escaped accounting (mid-process bound is %d)",
			counted, lost, n, missing, maxInProcess)
	}
}

// TestRejoinHandoverFlushesInterimDirtySlates pins the rejoin
// handover for lazy flush policies: the victim dies with no state, the
// interim owners accumulate dirty (never-flushed) slates, and the
// rejoin must flush them to the store before the ring flips back —
// otherwise the revived machine warm-loads stale state and the interim
// owners' counts silently vanish.
func TestRejoinHandoverFlushesInterimDirtySlates(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng, err := muppet.NewEngine(countApp(), muppet.Config{
		Machines: 6, Store: store, StoreLevel: muppet.Quorum,
		// A far-future interval means nothing flushes on its own.
		FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour,
		QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const n = 6000
	const keys = 30
	const victim = "machine-04"
	// Kill the machine before it holds any state: no dirty slates are
	// lost, so the accounting below is exact.
	eng.CrashMachine(victim)
	for i := 0; i < n; i++ {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%keys)})
		if i == n/2 {
			if _, err := eng.RejoinMachine(victim); err != nil {
				t.Fatal(err)
			}
		}
	}
	eng.Drain()
	counted := 0
	for i := 0; i < keys; i++ {
		if sl := eng.Slate("U1", fmt.Sprintf("k%d", i)); sl != nil {
			v, _ := strconv.Atoi(string(sl))
			counted += v
		}
	}
	lost := int(eng.Stats().LostMachineDown) + int(eng.RecoveryStatus().QueuedLost)
	if counted+lost != n {
		t.Fatalf("counted %d + lost %d != ingested %d (interim owners' dirty slates lost in handover)", counted, lost, n)
	}
}

// TestConcurrentRejoinRestartsOnce: two RejoinMachine calls for one
// crashed machine restart it once; the second waits for the first and
// returns its report, or an error. Were both to restart it, the second
// would replace the queues the first had just started loops on, and
// Stop would wait on those loops forever.
func TestConcurrentRejoinRestartsOnce(t *testing.T) {
	for _, v := range []struct {
		name    string
		version muppet.EngineVersion
	}{{"engine1", muppet.EngineV1}, {"engine2", muppet.EngineV2}} {
		t.Run(v.name, func(t *testing.T) {
			eng, err := muppet.NewEngine(countApp(), muppet.Config{
				Engine: v.version, Machines: 4,
				Store:      muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3}),
				StoreLevel: muppet.Quorum, FlushPolicy: muppet.WriteThrough,
				QueueCapacity: 1 << 12,
			})
			if err != nil {
				t.Fatal(err)
			}
			const victim = "machine-03"
			eng.CrashMachine(victim)
			for i := 0; eng.RecoveryStatus().Failovers == 0; i++ {
				if i >= 100_000 {
					t.Fatal("the crash was never detected")
				}
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%64)})
				if i%16 == 15 {
					eng.Drain()
				}
			}

			var wg sync.WaitGroup
			reps, errs := make([]muppet.RejoinReport, 2), make([]error, 2)
			for i := range reps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					reps[i], errs[i] = eng.RejoinMachine(victim)
				}()
			}
			wg.Wait()
			if errs[0] != nil && errs[1] != nil {
				t.Fatalf("both rejoins failed: %v; %v", errs[0], errs[1])
			}
			for i, rep := range reps {
				if errs[i] == nil && (!rep.Restarted || rep != reps[1-i] && errs[1-i] == nil) {
					t.Errorf("rejoin reports %+v and %+v, want the one restart's report", reps[0], reps[1])
				}
			}
			if n := eng.RecoveryStatus().Rejoins; n != 1 {
				t.Errorf("rejoins = %d, want 1", n)
			}

			stopped := make(chan struct{})
			go func() {
				eng.Stop()
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(10 * time.Second):
				t.Fatal("Stop hung after concurrent rejoins")
			}
		})
	}
}
