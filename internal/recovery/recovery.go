package recovery

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/metrics"
	"muppet/internal/slate"
)

// warmLimit bounds the slates pre-loaded into a rejoined machine's
// cache from the durable store; the rest refill on demand.
const warmLimit = 10_000

// Config tunes the recovery subsystem's failure detector; the zero
// value picks the defaults. Detect-on-send and cache warm-up on rejoin
// are always on.
type Config struct {
	// SuspicionK is the number of consecutive exhausted-retry sends to
	// one machine that confirm suspicion and escalate to machine-down
	// (default 3). 1 restores pre-suspicion behavior: the first
	// exhausted send reports the machine.
	SuspicionK int
	// SuspicionWindow bounds how long a run of transient failures may
	// stretch and still confirm; a run that goes stale restarts the
	// count (default 10s).
	SuspicionWindow time.Duration
}

func (c *Config) fill() {
	if c.SuspicionK <= 0 {
		c.SuspicionK = 3
	}
	if c.SuspicionWindow <= 0 {
		c.SuspicionWindow = 10 * time.Second
	}
}

// Adapter is the engine-side surface the manager drives. The engine
// runtime implements it, over its cells; the manager owns the protocol
// ordering.
type Adapter interface {
	// RemoveFromRing takes the machine's workers off the engine's hash
	// ring(s) so keys reroute to ring successors.
	RemoveFromRing(machine string)
	// RestoreToRing re-enables the machine's workers on the ring(s).
	RestoreToRing(machine string)
	// DrainQueues empties and closes every event queue on the machine,
	// calling drained for each removed event with its destination
	// function. The adapter retires the events from the engine's
	// in-flight tracker; the manager records them lost.
	DrainQueues(machine string, drained func(function string, ev event.Event))
	// AwaitWorkers blocks until the machine's worker goroutines, whose
	// queues DrainQueues has closed, have finished the invocation each
	// was running and exited.
	AwaitWorkers(machine string)
	// CrashSlates drops the machine's slate caches without flushing,
	// returning the number of dirty slates lost. A group commit under way
	// is in the store before it returns, and the caches refuse writes
	// until RestartWorkers.
	CrashSlates(machine string) (dirtyLost int)
	// RestartWorkers recreates the machine's queues and worker
	// goroutines after revival and lets its slate caches take writes
	// again.
	RestartWorkers(machine string)
	// FlushSlates persists every dirty cached slate cluster-wide. The
	// rejoin protocol calls it before the ring flips back, so the
	// interim owners' unflushed updates are durable before the revived
	// machine re-reads its keys from the store.
	FlushSlates()
	// DropMisplacedSlates evicts, on every machine, cached slates whose
	// keys the machine no longer owns on the current ring. Run after a
	// ring change so a stale copy can never shadow the store if the key
	// later returns.
	DropMisplacedSlates()
	// WarmSlates pre-loads up to limit slates owned by the machine from
	// the durable store, returning how many were loaded.
	WarmSlates(machine string, limit int) int
	// RingMembers reports, per machine, whether it is currently enabled
	// on the engine's ring(s).
	RingMembers() map[string]bool
}

// Deps are the engine-provided collaborators of a Manager.
type Deps struct {
	// Cluster is the simulated machine cluster.
	Cluster *cluster.Cluster
	// Adapter is the engine's recovery surface.
	Adapter Adapter
	// Lost receives the precise loss accounting of every failover.
	Lost *engine.LostLog
	// Counters are the engine's lifetime counters (FailureReports).
	Counters *engine.Counters
	// Tracker is the engine's in-flight tracker; the manager holds it
	// open from a failure report until that machine's failover has
	// finished, so Drain cannot return while the ring still routes to
	// the dead machine or its losses are still being counted.
	Tracker *engine.Tracker
	// Store is the durable slate store caches are warmed from; nil
	// disables warming and the rejoin handover flush.
	Store slate.Store
}

// incident is the per-machine recovery state between crash and rejoin.
type incident struct {
	cleaned    bool      // cleanup claimed (queues drained, slates crashed)
	cleanDone  bool      // cleanup finished
	failedOver bool      // failure report accepted, failover claimed
	done       bool      // failover finished (ring update)
	detected   time.Time // when the failure report was accepted
	report     Report
}

// rejoin is one machine's revival in progress; a concurrent Rejoin of
// the same machine waits for done and returns rep.
type rejoin struct {
	done chan struct{}
	rep  RejoinReport
}

// Manager runs the recovery protocol for one engine and is the node's
// one failure authority: the failure reports of every sender on this
// node meet in its incident map. All methods are safe for concurrent
// use; failovers for distinct machines run one at a time through a
// pending queue, so a sender that detects a second dead machine queues
// it and returns instead of blocking on the first machine's failover.
type Manager struct {
	cfg  Config
	deps Deps
	det  *Detector

	mu        sync.Mutex
	cond      *sync.Cond
	incidents map[string]*incident
	pending   []string
	running   bool
	rejoining map[string]*rejoin
	lastFail  *Report
	lastJoin  *RejoinReport

	failovers  atomic.Uint64
	rejoins    atomic.Uint64
	queuedLost atomic.Uint64
	dirtyLost  atomic.Uint64
	warmed     atomic.Uint64

	failoverLatency *metrics.Histogram[time.Duration]
	rejoinLatency   *metrics.Histogram[time.Duration]
}

// NewManager builds a manager and its failure detector.
func NewManager(deps Deps, cfg Config) *Manager {
	cfg.fill()
	m := &Manager{
		cfg:             cfg,
		deps:            deps,
		incidents:       make(map[string]*incident),
		rejoining:       make(map[string]*rejoin),
		failoverLatency: metrics.NewHistogram[time.Duration](0),
		rejoinLatency:   metrics.NewHistogram[time.Duration](0),
	}
	m.cond = sync.NewCond(&m.mu)
	m.det = &Detector{
		mgr:      m,
		k:        cfg.SuspicionK,
		window:   cfg.SuspicionWindow,
		suspects: make(map[string]*suspicion),
	}
	return m
}

// Detector returns the manager's failure detector; engines call its
// ObserveSendFailure from their delivery paths.
func (m *Manager) Detector() *Detector { return m.det }

// Crash is the stock §4.3 operator kill: the machine stops accepting
// events, and its queued events and dirty slates are lost (and
// logged). A group commit under way when the kill lands is in the store
// before Crash returns. No failure is reported; detection is left to
// the next failed send, exactly as in the paper.
func (m *Manager) Crash(machine string) Report {
	if !m.claimCleanup(machine) {
		m.deps.Cluster.Crash(machine)
		return m.waitCleanup(machine)
	}
	return m.doCleanup(machine, true)
}

// Rejoin revives a crashed machine and re-integrates it: workers
// restart on fresh queues, the ring re-enables the machine (the "new
// ring" announcement), and its slate cache is warmed from the durable
// store for the keys it now owns again. A Rejoin of a machine another
// Rejoin is already reviving waits for that one and returns its report.
func (m *Manager) Rejoin(machine string) (RejoinReport, error) {
	mach := m.deps.Cluster.Machine(machine)
	if mach == nil {
		return RejoinReport{}, fmt.Errorf("recovery: unknown machine %s", machine)
	}
	m.mu.Lock()
	// A cleanup or detection-driven failover for this machine may still
	// be in flight; let it finish, or its queue drain would close the
	// fresh queues the restart below installs.
	inc := m.incidents[machine]
	for m.rejoining[machine] == nil && inc != nil && (inc.failedOver && !inc.done || inc.cleaned && !inc.cleanDone) {
		m.cond.Wait()
		inc = m.incidents[machine]
	}
	if r := m.rejoining[machine]; r != nil {
		m.mu.Unlock()
		<-r.done
		return r.rep, nil
	}
	if mach.Alive() {
		m.mu.Unlock()
		return RejoinReport{}, fmt.Errorf("recovery: machine %s is not down", machine)
	}
	// Shield the rejoin window: a failure report racing the revival
	// (a send that failed just before Revive landed) must not start a
	// failover for a machine that is coming back.
	r := &rejoin{done: make(chan struct{})}
	m.rejoining[machine] = r
	restart := inc != nil && inc.cleaned
	m.mu.Unlock()
	// Quiesce before touching caches or the ring: in-flight events —
	// including any update that was mid-process on the dying machine,
	// which its dead cache refuses — must finish first, so the keys'
	// interim owners stop writing before ownership moves back (two
	// concurrent writers would silently lose the interim owner's tail of
	// updates). The machine is still down here, so deliveries racing the
	// rejoin keep failing as machine-down — the §4.3 pre-detection
	// disposition.
	if m.deps.Tracker != nil {
		m.deps.Tracker.Wait()
	}
	if restart {
		// The crash cleanup closed the machine's queues and its worker
		// goroutines exited; bring them back, and revive the crashed
		// caches, before traffic returns.
		m.deps.Adapter.RestartWorkers(machine)
	}
	// Revive only once the workers can accept traffic again: an alive
	// machine with still-closed queues would swallow every delivery
	// routed to it. Residual suspicion dies with the old incarnation —
	// a rejoined machine starts with a clean slate, so pre-crash blips
	// cannot count against the fresh workers.
	m.det.Reset(machine)
	m.deps.Cluster.Revive(machine)
	// Make the interim owners' state durable before the handover: under
	// Interval/OnEvict flushing their latest updates may exist only as
	// dirty cache entries, which the revived machine's store reads
	// would otherwise miss.
	if m.deps.Store != nil {
		m.deps.Adapter.FlushSlates()
	}
	// Restore the machine to the ring, evict the interim owners'
	// now-misplaced cache entries (a stale copy must never shadow the
	// store if the key fails back to them later), then warm the
	// machine's cache for the keys it owns again.
	start := time.Now()
	m.det.Reset(machine) // the new incarnation starts unsuspected
	m.deps.Adapter.RestoreToRing(machine)
	m.deps.Adapter.DropMisplacedSlates()
	warmedN := 0
	if m.deps.Store != nil {
		warmedN = m.deps.Adapter.WarmSlates(machine, warmLimit)
	}
	m.warmed.Add(uint64(warmedN))
	m.rejoins.Add(1)
	took := time.Since(start)
	m.rejoinLatency.Observe(took)
	r.rep = RejoinReport{Machine: machine, Restarted: restart, Warmed: warmedN, Took: took, At: time.Now()}
	m.mu.Lock()
	delete(m.incidents, machine)
	delete(m.rejoining, machine)
	m.lastJoin = &r.rep
	m.mu.Unlock()
	close(r.done)
	return r.rep, nil
}

// claimCleanup marks the machine's cleanup as owned by the caller,
// returning false if another failover already owns it.
func (m *Manager) claimCleanup(machine string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	inc := m.incidentLocked(machine)
	if inc.cleaned {
		return false
	}
	inc.cleaned = true
	return true
}

// waitCleanup blocks until the cleanup owner finishes and returns its
// report.
func (m *Manager) waitCleanup(machine string) Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	inc := m.incidentLocked(machine)
	for !inc.cleanDone {
		m.cond.Wait()
	}
	return inc.report
}

// incidentLocked returns (creating if needed) the machine's incident.
// Caller holds m.mu.
func (m *Manager) incidentLocked(machine string) *incident {
	inc := m.incidents[machine]
	if inc == nil {
		inc = &incident{}
		m.incidents[machine] = inc
	}
	return inc
}

// doCleanup runs the local half of recovery after claimCleanup: drain
// the dead machine's queues, recording each queued event lost
// (LossCrashedQueue), and crash its slate caches, which waits out a
// group commit under way — the stock §4.3 disposition. With quiesce set
// (the operator kills, never a worker's own detection) the kill lands
// between invocations: the machine's workers finish the update each was
// running before the machine is marked down — before any sender can
// detect the death and route the keys elsewhere — so a straggler's
// write can never race, and silently overwrite, the new owner's on the
// same slate.
func (m *Manager) doCleanup(machine string, quiesce bool) Report {
	start := time.Now()
	rep := Report{Machine: machine, At: start}
	m.deps.Adapter.DrainQueues(machine, func(function string, ev event.Event) {
		rep.QueuedLost++
		if m.deps.Lost != nil {
			m.deps.Lost.Record(function, ev, engine.LossCrashedQueue)
		}
	})
	if quiesce {
		m.deps.Adapter.AwaitWorkers(machine)
	}
	m.deps.Cluster.Crash(machine)
	dirtyLost := m.deps.Adapter.CrashSlates(machine)
	rep.DirtyLost = dirtyLost
	rep.Took = time.Since(start)
	m.queuedLost.Add(uint64(rep.QueuedLost))
	m.dirtyLost.Add(uint64(dirtyLost))
	m.mu.Lock()
	inc := m.incidentLocked(machine)
	inc.report = rep
	inc.cleanDone = true
	m.cond.Broadcast()
	m.mu.Unlock()
	return rep
}

// ReportFailure is how a sender that could not contact the machine
// reports it; the Detector calls it, and so does PingAll. The first
// report of a down machine queues its failover and returns true; a
// duplicate, a report for a machine that is alive again (the send
// failed before a rejoin revived it), and one for a machine being
// revived return false and change nothing. The report runs the pending
// queue on the reporter's goroutine unless another goroutine already
// is: concurrent detections of distinct machines run one failover at a
// time without holding up the later reporters, and the tracker hold
// keeps Drain blocked until every queued failover has completed.
func (m *Manager) ReportFailure(machine string) bool {
	if m.deps.Counters != nil {
		m.deps.Counters.FailureReports.Add(1)
	}
	mach := m.deps.Cluster.Machine(machine)
	m.mu.Lock()
	if mach == nil || mach.Alive() || m.rejoining[machine] != nil {
		m.mu.Unlock()
		return false
	}
	inc := m.incidentLocked(machine)
	if inc.failedOver {
		m.mu.Unlock()
		return false
	}
	inc.failedOver = true
	inc.detected = time.Now()
	m.pending = append(m.pending, machine)
	if m.deps.Tracker != nil {
		m.deps.Tracker.Inc()
	}
	if m.running {
		m.mu.Unlock()
		return true
	}
	m.running = true
	m.mu.Unlock()
	for {
		m.mu.Lock()
		if len(m.pending) == 0 {
			m.running = false
			m.mu.Unlock()
			return true
		}
		next := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.failover(next)
		if m.deps.Tracker != nil {
			m.deps.Tracker.Dec()
		}
	}
}

// PingAll is the MapReduce-style alternative the paper argues against:
// probe every machine and report the dead ones. It returns the newly
// detected failures. Experiment E12 compares the latency of this
// periodic detection against Muppet's detect-on-send.
func (m *Manager) PingAll() []string {
	var newly []string
	for _, name := range m.deps.Cluster.MachineNames() {
		if !m.deps.Cluster.Machine(name).Alive() && m.ReportFailure(name) {
			newly = append(newly, name)
		}
	}
	return newly
}

// FailedMachines returns the machines whose failure has been reported
// and not yet rejoined, sorted.
func (m *Manager) FailedMachines() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name, inc := range m.incidents {
		if inc.failedOver {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// DetectionTime returns when the machine's failure was first reported;
// ok is false if it has not been since its last rejoin.
func (m *Manager) DetectionTime(machine string) (time.Time, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if inc := m.incidents[machine]; inc != nil && inc.failedOver {
		return inc.detected, true
	}
	return time.Time{}, false
}

// failover runs the cluster half of recovery: ensure the local cleanup
// has finished, then remove the machine from the ring so keys reroute.
func (m *Manager) failover(machine string) {
	start := time.Now()
	if m.claimCleanup(machine) {
		// Detection can fire on one of the machine's own workers, so this
		// path must not wait for them.
		m.doCleanup(machine, false)
	} else {
		m.waitCleanup(machine)
	}
	m.deps.Adapter.RemoveFromRing(machine)
	m.failovers.Add(1)
	m.failoverLatency.Observe(time.Since(start))
	m.mu.Lock()
	inc := m.incidentLocked(machine)
	inc.report.Detected = true
	inc.done = true
	cp := inc.report
	m.lastFail = &cp
	m.cond.Broadcast()
	m.mu.Unlock()
}

// FailoverLatency is the histogram of failover wall-clock durations.
func (m *Manager) FailoverLatency() *metrics.Histogram[time.Duration] { return m.failoverLatency }

// RejoinLatency is the histogram of rejoin wall-clock durations.
func (m *Manager) RejoinLatency() *metrics.Histogram[time.Duration] { return m.rejoinLatency }
