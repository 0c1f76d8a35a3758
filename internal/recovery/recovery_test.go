package recovery

import (
	"sync"
	"testing"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/slate"
)

// fakeStore is a map-backed slate.Store.
type fakeStore struct {
	mu   sync.Mutex
	data map[slate.Key][]byte
}

func newFakeStore() *fakeStore { return &fakeStore{data: make(map[slate.Key][]byte)} }

func (s *fakeStore) Load(k slate.Key) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	v, ok := s.data[k]
	return v, ok, nil
}

func (s *fakeStore) Save(k slate.Key, value []byte, _ time.Duration) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[k] = append([]byte(nil), value...)
	return nil
}

// fakeAdapter is a scriptable engine stand-in.
type fakeAdapter struct {
	mu        sync.Mutex
	ring      map[string]bool
	queued    map[string][]engine.Envelope
	dirty     map[string]int
	drains    map[string]int
	awaited   map[string]int // AwaitWorkers calls per machine
	restarted []string
	flushes   int
	drops     int
	warm      map[string]int // machine -> slates "warmed" per call
}

func newFakeAdapter(machines ...string) *fakeAdapter {
	a := &fakeAdapter{
		ring:    make(map[string]bool),
		queued:  make(map[string][]engine.Envelope),
		dirty:   make(map[string]int),
		drains:  make(map[string]int),
		awaited: make(map[string]int),
		warm:    make(map[string]int),
	}
	for _, m := range machines {
		a.ring[m] = true
	}
	return a
}

func (a *fakeAdapter) RemoveFromRing(machine string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ring[machine] = false
}

func (a *fakeAdapter) RestoreToRing(machine string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ring[machine] = true
}

func (a *fakeAdapter) DrainQueues(machine string, drained func(string, event.Event)) {
	a.mu.Lock()
	q := a.queued[machine]
	a.queued[machine] = nil
	a.drains[machine]++
	a.mu.Unlock()
	for _, env := range q {
		drained(env.Func, env.Ev)
	}
}

func (a *fakeAdapter) AwaitWorkers(machine string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.awaited[machine]++
}

func (a *fakeAdapter) CrashSlates(machine string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	d := a.dirty[machine]
	a.dirty[machine] = 0
	return d
}

func (a *fakeAdapter) RestartWorkers(machine string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.restarted = append(a.restarted, machine)
}

func (a *fakeAdapter) FlushSlates() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.flushes++
}

func (a *fakeAdapter) DropMisplacedSlates() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.drops++
}

func (a *fakeAdapter) WarmSlates(machine string, limit int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := a.warm[machine]
	if n > limit {
		n = limit
	}
	return n
}

func (a *fakeAdapter) RingMembers() map[string]bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]bool, len(a.ring))
	for k, v := range a.ring {
		out[k] = v
	}
	return out
}

func (a *fakeAdapter) inRing(machine string) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ring[machine]
}

func (a *fakeAdapter) drainCount(machine string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.drains[machine]
}

func env(fn, key string) engine.Envelope {
	return engine.Envelope{Func: fn, Ev: event.Event{Stream: "S1", Key: key}}
}

func harness(cfg Config) (*Manager, *fakeAdapter, *fakeStore, *cluster.Cluster, *engine.LostLog) {
	clu := cluster.New(cluster.Config{Machines: 3})
	ad := newFakeAdapter(clu.MachineNames()...)
	store := newFakeStore()
	lost := engine.NewLostLog(0)
	m := NewManager(Deps{
		Cluster:  clu,
		Adapter:  ad,
		Lost:     lost,
		Counters: engine.NewCounters(),
		Tracker:  engine.NewTracker(),
		Store:    store,
	}, cfg)
	return m, ad, store, clu, lost
}

func TestStockCrashLosesQueued(t *testing.T) {
	m, ad, _, clu, lost := harness(Config{})
	const victim = "machine-01"
	ad.queued[victim] = []engine.Envelope{env("U", "a"), env("U", "b")}
	ad.dirty[victim] = 5

	rep := m.Crash(victim)
	if rep.QueuedLost != 2 || rep.DirtyLost != 5 {
		t.Fatalf("report = %+v, want 2 queued / 5 dirty lost", rep)
	}
	// Stock crash: the master is NOT notified, and the ring unchanged.
	if got := clu.Master().FailedMachines(); len(got) != 0 {
		t.Fatalf("master learned of stock crash: %v", got)
	}
	if !ad.inRing(victim) {
		t.Fatal("stock crash removed machine from ring before detection")
	}
	if lost.Total() != 2 {
		t.Fatalf("lost log total = %d, want 2", lost.Total())
	}
	// An operator kill lands between invocations: it waits the victim's
	// workers out before crashing their slates.
	if ad.awaited[victim] != 1 {
		t.Fatalf("operator kill awaited the victim's workers %d times, want 1", ad.awaited[victim])
	}
	for _, e := range lost.Recent() {
		if e.Reason != engine.LossCrashedQueue {
			t.Fatalf("loss reason = %v, want crashed-queue", e.Reason)
		}
	}
	// With no send to fail, a PingAll sweep (the operator fallback) is
	// what reports the crash and drives the failover.
	clu.Master().PingAll()
	if ad.inRing(victim) {
		t.Fatal("PingAll did not drive failover")
	}
	if ad.drainCount(victim) != 1 {
		t.Fatalf("failover after the stock crash re-drained queues: %d drains", ad.drainCount(victim))
	}
}

func TestDetectOnSendDrivesFailover(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{})
	const victim = "machine-02"
	ad.queued[victim] = []engine.Envelope{env("U", "x")}
	clu.Crash(victim)

	m.Detector().ObserveSendFailure(victim)

	if got := clu.Master().FailedMachines(); len(got) != 1 || got[0] != victim {
		t.Fatalf("master failed set = %v", got)
	}
	if ad.inRing(victim) {
		t.Fatal("failover did not remove machine from ring")
	}
	if ad.drainCount(victim) != 1 {
		t.Fatalf("queues drained %d times, want 1", ad.drainCount(victim))
	}
	// Detection may run on one of the victim's own workers: waiting for
	// them there would deadlock.
	if ad.awaited[victim] != 0 {
		t.Fatal("detection-driven cleanup waited for the victim's workers")
	}
	st := m.Status()
	if st.Failovers != 1 || st.QueuedLost != 1 {
		t.Fatalf("status = %+v, want 1 failover / 1 queued lost", st)
	}
	if st.LastFailover == nil || st.LastFailover.Machine != victim || !st.LastFailover.Detected {
		t.Fatalf("last failover = %+v", st.LastFailover)
	}
	if m.Detector().Observed() != 1 || m.Detector().Detected() != 1 {
		t.Fatalf("detector counts = %d/%d", m.Detector().Observed(), m.Detector().Detected())
	}
}

func TestFailoverIdempotent(t *testing.T) {
	m, ad, _, _, _ := harness(Config{})
	const victim = "machine-00"
	ad.queued[victim] = []engine.Envelope{env("U", "a")}

	rep1 := m.Crash(victim)
	// Detection after an operator crash must not redo the cleanup.
	m.Detector().ObserveSendFailure(victim)
	m.Detector().ObserveSendFailure(victim)
	rep2 := m.Crash(victim)

	if ad.drainCount(victim) != 1 {
		t.Fatalf("queues drained %d times, want 1", ad.drainCount(victim))
	}
	if rep1.QueuedLost != 1 || rep2.QueuedLost != 1 {
		t.Fatalf("reports disagree: %+v vs %+v", rep1, rep2)
	}
	if st := m.Status(); st.Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", st.Failovers)
	}
}

func TestRejoinRestartsWarmsAndRestoresRing(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{})
	const victim = "machine-02"
	ad.warm[victim] = 7
	m.Crash(victim)
	m.Detector().ObserveSendFailure(victim)
	if ad.inRing(victim) {
		t.Fatal("setup: machine still in ring")
	}

	rep, err := m.Rejoin(victim)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Restarted {
		t.Fatal("workers not restarted after a cleaned crash")
	}
	if rep.Warmed != 7 {
		t.Fatalf("warmed = %d, want 7", rep.Warmed)
	}
	if ad.flushes != 1 {
		t.Fatalf("interim owners flushed %d times before handover, want 1", ad.flushes)
	}
	if ad.drops != 1 {
		t.Fatalf("misplaced-slate eviction ran %d times, want 1", ad.drops)
	}
	if !ad.inRing(victim) {
		t.Fatal("machine not restored to ring")
	}
	if !clu.Machine(victim).Alive() {
		t.Fatal("machine not revived")
	}
	if got := clu.Master().FailedMachines(); len(got) != 0 {
		t.Fatalf("master still thinks %v failed", got)
	}
	st := m.Status()
	if st.Rejoins != 1 || st.Warmed != 7 || st.LastRejoin == nil || st.LastRejoin.Machine != victim {
		t.Fatalf("status after rejoin = %+v", st)
	}

	// Rejoining an alive machine and an unknown machine both fail.
	if _, err := m.Rejoin(victim); err == nil {
		t.Fatal("rejoin of alive machine succeeded")
	}
	if _, err := m.Rejoin("machine-99"); err == nil {
		t.Fatal("rejoin of unknown machine succeeded")
	}

	// A second crash after rejoin is a fresh incident.
	ad.queued[victim] = []engine.Envelope{env("U", "b")}
	rep2 := m.Crash(victim)
	if rep2.QueuedLost != 1 {
		t.Fatalf("second crash report = %+v", rep2)
	}
	if ad.drainCount(victim) != 2 {
		t.Fatalf("drain count = %d, want 2", ad.drainCount(victim))
	}
}

// TestRejoinWarmDisabled: without a durable store there is nothing to
// warm a rejoined machine's cache from; the cache refills on demand.
func TestRejoinWarmDisabled(t *testing.T) {
	m, ad, _, _, _ := harness(Config{})
	m.deps.Store = nil
	const victim = "machine-00"
	ad.warm[victim] = 9
	m.Crash(victim)
	rep, err := m.Rejoin(victim)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Warmed != 0 {
		t.Fatalf("warmed = %d without a store", rep.Warmed)
	}
}

// TestStaleFailureReportAfterRejoinIgnored: a send that failed before
// a rejoin but was reported after it must not tear down the healthy
// machine — and must not poison the master so a future real failure
// goes undetected.
func TestStaleFailureReportAfterRejoinIgnored(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{})
	const victim = "machine-01"
	m.Crash(victim)
	m.Detector().ObserveSendFailure(victim)
	if _, err := m.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if !ad.inRing(victim) || !clu.Machine(victim).Alive() {
		t.Fatal("setup: machine not healthy after rejoin")
	}

	// The stale report arrives now, after the rejoin Forgot the
	// original failure.
	m.Detector().ObserveSendFailure(victim)
	if !ad.inRing(victim) {
		t.Fatal("stale report removed a healthy machine from the ring")
	}
	if ad.drainCount(victim) != 1 {
		t.Fatalf("stale report re-drained queues: %d drains", ad.drainCount(victim))
	}
	if got := clu.Master().FailedMachines(); len(got) != 0 {
		t.Fatalf("master still lists %v failed after stale report", got)
	}

	// A real second failure is still detected and handled.
	clu.Crash(victim)
	m.Detector().ObserveSendFailure(victim)
	if ad.inRing(victim) {
		t.Fatal("real second failure not failed over")
	}
	if ad.drainCount(victim) != 2 {
		t.Fatalf("second failure did not drain: %d drains", ad.drainCount(victim))
	}
}

// TestTwoMachinesDetectedConcurrently: senders detect two dead
// machines at once. The pending queue runs one failover at a time, so
// the later reporter queues its machine and returns; both machines
// must fail over, and the tracker hold must keep Drain's wait open
// until they have.
func TestTwoMachinesDetectedConcurrently(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{})
	const first, second = "machine-00", "machine-01"
	ad.queued[first] = []engine.Envelope{env("U", "a")}
	ad.queued[second] = []engine.Envelope{env("U", "b"), env("U", "c")}
	clu.Crash(first)
	clu.Crash(second)

	var wg sync.WaitGroup
	for _, victim := range []string{first, second} {
		wg.Add(1)
		go func(victim string) {
			defer wg.Done()
			m.Detector().ObserveSendFailure(victim)
		}(victim)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		m.deps.Tracker.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("concurrent detections deadlocked the manager")
	}
	if ad.inRing(first) || ad.inRing(second) {
		t.Fatal("a detected machine is still in the ring")
	}
	st := m.Status()
	if st.Failovers != 2 || st.QueuedLost != 3 {
		t.Fatalf("status = failovers %d queuedLost %d, want 2/3", st.Failovers, st.QueuedLost)
	}
}

func TestConcurrentDetectionSingleFailover(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{})
	const victim = "machine-01"
	ad.queued[victim] = []engine.Envelope{env("U", "a"), env("U", "b"), env("U", "c")}
	clu.Crash(victim)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Detector().ObserveSendFailure(victim)
		}()
	}
	wg.Wait()
	// The tracker hold guarantees the failover has fully completed once
	// in-flight work drains.
	m.deps.Tracker.Wait()
	if ad.drainCount(victim) != 1 {
		t.Fatalf("queues drained %d times, want 1", ad.drainCount(victim))
	}
	st := m.Status()
	if st.Failovers != 1 || st.QueuedLost != 3 {
		t.Fatalf("status = failovers %d queuedLost %d, want 1/3", st.Failovers, st.QueuedLost)
	}
}

func TestStatusMachinesView(t *testing.T) {
	m, _, _, clu, _ := harness(Config{})
	m.Crash("machine-01")
	m.Detector().ObserveSendFailure("machine-01")
	st := m.Status()
	if len(st.Machines) != 3 {
		t.Fatalf("machines = %d, want 3", len(st.Machines))
	}
	byName := make(map[string]MachineStatus)
	for _, ms := range st.Machines {
		byName[ms.Name] = ms
	}
	v := byName["machine-01"]
	if v.Alive || v.InRing || !v.Failed {
		t.Fatalf("victim status = %+v", v)
	}
	h := byName["machine-00"]
	if !h.Alive || !h.InRing || h.Failed {
		t.Fatalf("healthy status = %+v", h)
	}
	if got := clu.Master().FailedMachines(); len(got) != 1 {
		t.Fatalf("master failed set = %v", got)
	}
}
