package recovery

import (
	"testing"
	"time"
)

// TestSuspicionEscalatesAfterK: K consecutive exhausted-retry
// observations confirm the suspicion and drive a full failover —
// cluster crash presumption, failure report, ring removal — exactly as
// an authoritative detect-on-send would.
func TestSuspicionEscalatesAfterK(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{SuspicionK: 3})
	const victim = "machine-01"
	det := m.Detector()

	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	if !clu.Machine(victim).Alive() || !ad.inRing(victim) {
		t.Fatal("suspicion below K tore the machine down")
	}
	if lvl := det.SuspicionLevel(victim); lvl != 2 {
		t.Fatalf("suspicion level = %d, want 2", lvl)
	}
	if got := m.FailedMachines(); len(got) != 0 {
		t.Fatalf("failure reported before confirmation: %v", got)
	}

	det.ObserveTransientFailure(victim)
	if clu.Machine(victim).Alive() {
		t.Fatal("confirmed suspicion did not record the crash presumption")
	}
	if ad.inRing(victim) {
		t.Fatal("confirmed suspicion did not drive failover")
	}
	if got := m.FailedMachines(); len(got) != 1 || got[0] != victim {
		t.Fatalf("failed set = %v, want [%s]", got, victim)
	}
	if det.Escalated() != 1 || det.TransientObserved() != 3 {
		t.Fatalf("detector counts: escalated=%d transient=%d, want 1/3",
			det.Escalated(), det.TransientObserved())
	}
	if lvl := det.SuspicionLevel(victim); lvl != 0 {
		t.Fatalf("suspicion level after escalation = %d, want 0", lvl)
	}
	st := m.Status()
	if st.Escalations != 1 || st.TransientFails != 3 || st.SuspicionK != 3 {
		t.Fatalf("status = escalations %d / transient %d / k %d, want 1/3/3",
			st.Escalations, st.TransientFails, st.SuspicionK)
	}
}

// TestSuspicionClearedBySendOK pins the single-blip guarantee:
// "consecutive" means consecutive, so a delivered batch between blips
// restarts the count and no failover ever fires.
func TestSuspicionClearedBySendOK(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{SuspicionK: 3})
	const victim = "machine-02"
	det := m.Detector()

	for round := 0; round < 5; round++ {
		det.ObserveTransientFailure(victim)
		det.ObserveTransientFailure(victim)
		det.ObserveSendOK(victim)
		if lvl := det.SuspicionLevel(victim); lvl != 0 {
			t.Fatalf("round %d: level = %d after OK, want 0", round, lvl)
		}
	}
	if !clu.Machine(victim).Alive() || !ad.inRing(victim) {
		t.Fatal("interleaved blips escalated despite successful sends")
	}
	if det.Escalated() != 0 {
		t.Fatalf("escalations = %d, want 0", det.Escalated())
	}
}

// TestSuspicionWindowExpiry: a run that goes stale without confirming
// restarts from the next failure instead of accumulating forever.
func TestSuspicionWindowExpiry(t *testing.T) {
	m, _, _, _, _ := harness(Config{SuspicionK: 3, SuspicionWindow: 30 * time.Millisecond})
	const victim = "machine-00"
	det := m.Detector()

	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	time.Sleep(60 * time.Millisecond)
	det.ObserveTransientFailure(victim)
	if lvl := det.SuspicionLevel(victim); lvl != 1 {
		t.Fatalf("level after stale window = %d, want 1 (fresh run)", lvl)
	}
	if det.Escalated() != 0 {
		t.Fatalf("stale run escalated: %d", det.Escalated())
	}
}

// TestSuspicionAuthoritativeVerdictPreempts: an ErrMachineDown report
// supersedes any partial suspicion tally — and clears it, so the count
// cannot linger past the failover.
func TestSuspicionAuthoritativeVerdictPreempts(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{SuspicionK: 5})
	const victim = "machine-01"
	det := m.Detector()

	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	clu.Crash(victim)
	det.ObserveSendFailure(victim)
	if ad.inRing(victim) {
		t.Fatal("authoritative report did not fail over")
	}
	if lvl := det.SuspicionLevel(victim); lvl != 0 {
		t.Fatalf("residual suspicion after authoritative verdict: %d", lvl)
	}
}

// TestRejoinClearsSuspicion: the rejoin protocol hands the machine back
// with a clean slate — no residual suspicion from before the crash, and
// the full K budget available against fresh blips.
func TestRejoinClearsSuspicion(t *testing.T) {
	m, ad, _, clu, _ := harness(Config{SuspicionK: 3})
	const victim = "machine-01"
	det := m.Detector()

	// Escalate through the suspicion path: confirmed at K, failover runs.
	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	if ad.inRing(victim) {
		t.Fatal("setup: suspicion did not fail the machine over")
	}
	// Post-failover straggler: a send that exhausted retries before the
	// failover lands its observation late and re-seeds the tally.
	det.ObserveTransientFailure(victim)
	if lvl := det.SuspicionLevel(victim); lvl != 1 {
		t.Fatalf("straggler suspicion level = %d, want 1", lvl)
	}

	if _, err := m.Rejoin(victim); err != nil {
		t.Fatal(err)
	}
	if !clu.Machine(victim).Alive() || !ad.inRing(victim) {
		t.Fatal("machine not healthy after rejoin")
	}
	if lvl := det.SuspicionLevel(victim); lvl != 0 {
		t.Fatalf("suspicion survived the rejoin: level %d", lvl)
	}

	// The rejoined machine gets the full budget: K-1 fresh blips must
	// not tear it down again.
	det.ObserveTransientFailure(victim)
	det.ObserveTransientFailure(victim)
	if !ad.inRing(victim) || !clu.Machine(victim).Alive() {
		t.Fatal("rejoined machine failed over below the fresh-K threshold")
	}
	det.ObserveSendOK(victim)
	if lvl := det.SuspicionLevel(victim); lvl != 0 {
		t.Fatalf("post-rejoin suspicion not cleared by OK: %d", lvl)
	}
}

// TestSuspicionStatusView: /recovery surfaces per-machine suspicion
// levels while a run is open.
func TestSuspicionStatusView(t *testing.T) {
	m, _, _, _, _ := harness(Config{SuspicionK: 4})
	det := m.Detector()
	det.ObserveTransientFailure("machine-00")
	det.ObserveTransientFailure("machine-00")
	det.ObserveTransientFailure("machine-02")

	st := m.Status()
	levels := make(map[string]int)
	for _, ms := range st.Machines {
		levels[ms.Name] = ms.Suspicion
	}
	if levels["machine-00"] != 2 || levels["machine-01"] != 0 || levels["machine-02"] != 1 {
		t.Fatalf("status suspicion levels = %v", levels)
	}
	if s := det.Suspects(); len(s) != 2 || s["machine-00"] != 2 || s["machine-02"] != 1 {
		t.Fatalf("suspects = %v", s)
	}
}
