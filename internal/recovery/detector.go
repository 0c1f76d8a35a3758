package recovery

import (
	"sync"
	"sync/atomic"
	"time"
)

// Detector is the failure detector of Section 4.3: Muppet detects
// failures on the data path, when a send to a machine fails, rather
// than by periodic pings. The signal comes in two kinds:
//
//   - Fatal observations (cluster.ErrMachineDown — the hosting node
//     answered that the machine is crashed) are reported to the
//     Manager immediately.
//
//   - Transient observations (a send whose bounded retry budget was
//     exhausted by network blips) only raise *suspicion*. The machine
//     is reported down when SuspicionK consecutive exhausted sends
//     land within SuspicionWindow; a single successful send — or a
//     rejoin — clears the count. A blip therefore degrades to a retry
//     instead of tearing down a healthy machine's ring position.
//
// When suspicion confirms, the detector records the crash presumption
// on the local cluster view *before* reporting: the manager's
// stale-report guard drops failure reports for machines still presumed
// alive, and the ordering makes an escalated suspicion
// indistinguishable from an authoritative detect-on-send.
type Detector struct {
	mgr *Manager

	k      int
	window time.Duration

	observed  atomic.Uint64
	transient atomic.Uint64
	escalated atomic.Uint64

	suspectedN atomic.Int64 // fast-path gate for ObserveSendOK
	mu         sync.Mutex
	suspects   map[string]*suspicion
}

// suspicion is one machine's run of consecutive transient failures.
type suspicion struct {
	count int
	first time.Time
}

// ObserveSendFailure records one authoritatively failed send
// (ErrMachineDown) to the machine and reports it. The manager absorbs
// duplicate reports; only the first starts a failover.
func (d *Detector) ObserveSendFailure(machine string) {
	d.observed.Add(1)
	d.clearSuspicion(machine) // the verdict is in; the tally is moot
	d.mgr.ReportFailure(machine)
}

// ObserveTransientFailure records one send whose retry budget was
// exhausted by transient faults. It escalates to a machine-down report
// only when SuspicionK consecutive exhausted sends accumulate within
// SuspicionWindow — the suspicion state machine that keeps a blip from
// triggering failover.
func (d *Detector) ObserveTransientFailure(machine string) {
	d.transient.Add(1)
	now := time.Now()
	d.mu.Lock()
	s := d.suspects[machine]
	if s == nil {
		s = &suspicion{first: now}
		d.suspects[machine] = s
		d.suspectedN.Add(1)
	} else if d.window > 0 && now.Sub(s.first) > d.window {
		// The previous run went stale without confirming; this failure
		// starts a new one.
		s.count = 0
		s.first = now
	}
	s.count++
	confirmed := s.count >= d.k
	if confirmed {
		delete(d.suspects, machine)
		d.suspectedN.Add(-1)
	}
	d.mu.Unlock()
	if !confirmed {
		return
	}
	d.escalated.Add(1)
	// Record the presumption locally first: the manager drops failure
	// reports for machines its cluster view still calls alive.
	d.mgr.deps.Cluster.Crash(machine)
	d.mgr.ReportFailure(machine)
}

// ObserveSendOK clears the machine's suspicion: consecutive means
// consecutive, and one delivered batch proves the machine reachable.
func (d *Detector) ObserveSendOK(machine string) {
	if d.suspectedN.Load() == 0 {
		return // hot path: nobody is suspected
	}
	d.clearSuspicion(machine)
}

// Reset drops any residual suspicion for the machine; the rejoin
// protocol calls it so a revived machine starts with a clean slate.
func (d *Detector) Reset(machine string) {
	d.clearSuspicion(machine)
}

func (d *Detector) clearSuspicion(machine string) {
	d.mu.Lock()
	if _, ok := d.suspects[machine]; ok {
		delete(d.suspects, machine)
		d.suspectedN.Add(-1)
	}
	d.mu.Unlock()
}

// Suspects returns the machines currently under suspicion and their
// levels.
func (d *Detector) Suspects() map[string]int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.suspects) == 0 {
		return nil
	}
	out := make(map[string]int, len(d.suspects))
	for machine, s := range d.suspects {
		out[machine] = s.count
	}
	return out
}

// Observed returns the number of authoritatively failed sends seen,
// including duplicates for already-known failures.
func (d *Detector) Observed() uint64 { return d.observed.Load() }

// TransientObserved returns the number of exhausted-retry observations.
func (d *Detector) TransientObserved() uint64 { return d.transient.Load() }

// Escalated returns the number of suspicion confirmations — transient
// runs that crossed SuspicionK and were escalated to machine-down.
func (d *Detector) Escalated() uint64 { return d.escalated.Load() }
