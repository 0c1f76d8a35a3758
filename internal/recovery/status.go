package recovery

import "time"

// Report summarizes one machine failure's recovery: what was lost.
type Report struct {
	// Machine is the failed machine.
	Machine string `json:"machine"`
	// Detected is true once a failure report has driven the full
	// failover (ring update); a stock operator crash before detection
	// leaves it false.
	Detected bool `json:"detected"`
	// QueuedLost counts queued events that died with the machine and
	// were recorded in the lost log.
	QueuedLost int `json:"queued_lost"`
	// DirtyLost counts dirty (unflushed) slates lost with the cache.
	DirtyLost int `json:"dirty_slates_lost"`
	// Took is the wall-clock duration of the recovery work so far.
	Took time.Duration `json:"took_ns"`
	// At is when the recovery began.
	At time.Time `json:"at"`
}

// RejoinReport summarizes one machine revival.
type RejoinReport struct {
	// Machine is the revived machine.
	Machine string `json:"machine"`
	// Restarted reports whether worker goroutines had to be recreated
	// (true when the crash cleanup had closed the machine's queues).
	Restarted bool `json:"restarted"`
	// Warmed counts slates pre-loaded into the machine's cache from the
	// durable store.
	Warmed int `json:"slates_warmed"`
	// Took is the wall-clock duration of the rejoin.
	Took time.Duration `json:"took_ns"`
	// At is when the rejoin completed.
	At time.Time `json:"at"`
}

// MachineStatus is one machine's recovery view.
type MachineStatus struct {
	Name string `json:"name"`
	// Alive reports whether the simulated machine is up.
	Alive bool `json:"alive"`
	// InRing reports whether the engine's ring still routes to it.
	InRing bool `json:"in_ring"`
	// Failed reports whether its failure has been reported and it has
	// not rejoined since.
	Failed bool `json:"failed"`
	// Suspicion is the machine's current run of consecutive
	// exhausted-retry send failures (0 when unsuspected; reaching the
	// configured SuspicionK escalates to machine-down).
	Suspicion int `json:"suspicion,omitempty"`
}

// Status is a snapshot of the recovery subsystem, served by the
// /recovery HTTP endpoint for operators. Its counters name the metrics
// they are exposed as; Counters is the snapshot a scrape reads.
type Status struct {
	Machines        []MachineStatus `json:"machines"`
	SendFailures    uint64          `json:"send_failures_observed" metric:"muppet_recovery_send_failures_total" help:"Failed sends observed by the failure detector."`
	TransientFails  uint64          `json:"transient_failures_observed" metric:"muppet_recovery_transient_failures_total" help:"Exhausted-retry (transient) send failures observed by the detector."`
	Escalations     uint64          `json:"suspicion_escalations" metric:"muppet_recovery_suspicion_escalations_total" help:"Suspicion confirmations escalated to machine-down reports."`
	Suspected       int             `json:"-" metric:"muppet_recovery_suspected_machines" help:"Machines currently under transient-failure suspicion."`
	SuspicionK      int             `json:"suspicion_k" metric:"-"`
	Failovers       uint64          `json:"failovers" metric:"muppet_recovery_failovers_total" help:"Master-coordinated failovers completed."`
	Rejoins         uint64          `json:"rejoins" metric:"muppet_recovery_rejoins_total" help:"Machine rejoins completed."`
	QueuedLost      uint64          `json:"queued_lost" metric:"muppet_recovery_queued_lost_total" help:"Queued events lost with crashed machines."`
	DirtyLost       uint64          `json:"dirty_slates_lost" metric:"muppet_recovery_dirty_slates_lost_total" help:"Dirty slates lost with crashed caches."`
	Warmed          uint64          `json:"slates_warmed" metric:"muppet_recovery_slates_warmed_total" help:"Slates pre-loaded into rejoined machines' caches."`
	FailoverLatency string          `json:"failover_latency,omitempty"`
	RejoinLatency   string          `json:"rejoin_latency,omitempty"`
	LastFailover    *Report         `json:"last_failover,omitempty"`
	LastRejoin      *RejoinReport   `json:"last_rejoin,omitempty"`
}

// Counters snapshots the subsystem's lifetime counters alone, without
// the per-machine view, the latency summaries or the last reports.
func (m *Manager) Counters() Status {
	return Status{
		SendFailures:   m.det.Observed(),
		TransientFails: m.det.TransientObserved(),
		Escalations:    m.det.Escalated(),
		Suspected:      int(m.det.suspectedN.Load()),
		SuspicionK:     m.cfg.SuspicionK,
		Failovers:      m.failovers.Load(),
		Rejoins:        m.rejoins.Load(),
		QueuedLost:     m.queuedLost.Load(),
		DirtyLost:      m.dirtyLost.Load(),
		Warmed:         m.warmed.Load(),
	}
}

// Status snapshots the subsystem: per-machine liveness and ring
// membership, lifetime recovery counters, latency summaries, and the
// most recent failover and rejoin reports.
func (m *Manager) Status() Status {
	members := m.deps.Adapter.RingMembers()
	failed := make(map[string]bool)
	for _, f := range m.FailedMachines() {
		failed[f] = true
	}
	suspects := m.det.Suspects()
	st := m.Counters()
	for _, name := range m.deps.Cluster.MachineNames() {
		st.Machines = append(st.Machines, MachineStatus{
			Name:      name,
			Alive:     m.deps.Cluster.Machine(name).Alive(),
			InRing:    members[name],
			Failed:    failed[name],
			Suspicion: suspects[name],
		})
	}
	if s := m.failoverLatency.Snapshot(); s.Count > 0 {
		st.FailoverLatency = s.String()
	}
	if s := m.rejoinLatency.Snapshot(); s.Count > 0 {
		st.RejoinLatency = s.String()
	}
	m.mu.Lock()
	st.LastFailover = m.lastFail
	st.LastRejoin = m.lastJoin
	m.mu.Unlock()
	return st
}
