package engine

import (
	"fmt"
	"sync/atomic"
	"testing"

	"muppet/internal/cluster"
	"muppet/internal/event"
	"muppet/internal/queue"
)

// TestSendOutcomeClassifier pins the one place a send outcome becomes a
// detector report, a counter and a loss reason (Courier.Observe +
// Courier.Settle), cell by cell: every outcome a frame or a delivery can
// come back with x who produced it x the overflow disposition.
func TestSendOutcomeClassifier(t *testing.T) {
	clu := cluster.New(cluster.Config{Machines: 1})
	_, _, errUnknownMachine := clu.SendBatch("machine-99", []cluster.Delivery{{}})
	if errUnknownMachine == nil {
		t.Fatal("send to a non-member succeeded")
	}
	type disposition struct {
		detector string      // which SendObserver method Observe calls, "" for none
		counter  string      // which counter Settle ticks
		reason   *LossReason // logged loss reason; nil when not lost
	}
	lost := func(r LossReason) *LossReason { return &r }
	machineDown := disposition{"", "LostMachineDown", lost(LossMachineDown)}
	outcomes := []struct {
		name string
		err  error
		want disposition
		// queueFull marks the outcome the overflow policy and the origin
		// get a say in; every other cell is the same for all of them.
		queueFull bool
	}{
		{"accepted", nil, disposition{"ok", "Emitted", nil}, false},
		{"ErrMachineDown", cluster.ErrMachineDown, disposition{"fatal", "LostMachineDown", lost(LossMachineDown)}, false},
		{"transient", &cluster.TransientError{Op: "exchange"}, disposition{"transient", "LostMachineDown", lost(LossTransient)}, false},
		{"ErrOverflow", queue.ErrOverflow, disposition{"", "LostOverflow", lost(LossOverflow)}, true},
		{"ErrClosed", queue.ErrClosed, machineDown, false},
		{"ErrRemoteReject", cluster.ErrRemoteReject, disposition{"", "LostOverflow", lost(LossOverflow)}, false},
		// The two cells the courier's and the ingress driver's classifiers
		// used to disagree on (overflow vs machine-down): a frame no machine
		// took is lost to the machine, not to a queue.
		{"ErrNoHandler", cluster.ErrNoHandler, machineDown, false},
		{"unknown machine", errUnknownMachine, machineDown, false},
	}
	policies := []struct {
		name   string
		policy queue.OverflowPolicy
		stream string
	}{
		{"drop", queue.Drop, ""},
		{"divert", queue.Divert, "SOVER"},
		{"divert-without-stream", queue.Divert, ""},
	}
	// Producers, by the origin their deliveries settle under. A
	// fire-and-forget source outside Block goes out as a worker's emit
	// does; under Block it is the ingress driver's, a batch.
	origins := []struct {
		name string
		from Origin
		// rerouted is the origin a diverted copy goes out under.
		rerouted Origin
	}{
		{"worker", FromWorker, FromWorker},
		{"source", FromWorker, FromWorker},
		{"batch", FromBatch, FromWorker},
		{"sender", fromSender, fromSender},
	}
	for _, oc := range outcomes {
		for _, pol := range policies {
			for _, org := range origins {
				t.Run(fmt.Sprintf("%s/%s/%s", oc.name, pol.name, org.name), func(t *testing.T) {
					want := oc.want
					diverted := oc.queueFull && pol.stream != ""
					switch {
					case diverted:
						want = disposition{"", "Diverted", nil}
					case want.counter == "LostOverflow" && org.from == FromBatch:
						want.reason = lost(LossBatchPartial)
					}

					det := &strikes{ok: map[string]int{}, fatal: map[string]int{}, transit: map[string]int{}}
					counters, lostLog := NewCounters(), NewLostLog(0)
					var stopped atomic.Bool
					var rerouted []event.Event
					var reroutedFrom []Origin
					c := NewCourier(CourierConfig{
						Cluster: clu, Counters: counters, Tracker: NewTracker(), Lost: lostLog,
						Detector: det, Stopped: &stopped, Policy: pol.policy, OverflowStream: pol.stream,
						Reroute: func(ev event.Event, from Origin) {
							rerouted, reroutedFrom = append(rerouted, ev), append(reroutedFrom, from)
						},
					})
					defer c.Close()

					ev := event.Event{Stream: "S2", Key: "k", Seq: 7}
					c.Observe("machine-00", oc.err)
					reason, wasLost := c.Settle("U1", ev, oc.err, org.from)

					ok, fatal, transit := det.counts("machine-00")
					gotDet := map[string]int{"ok": ok, "fatal": fatal, "transient": transit}
					for name, n := range gotDet {
						if (n == 1) != (name == want.detector) || n > 1 {
							t.Errorf("detector observations %v, want one %q", gotDet, want.detector)
						}
					}
					st := counters.Snapshot()
					gotCounters := map[string]uint64{
						"Emitted": st.Emitted, "LostMachineDown": st.LostMachineDown,
						"LostOverflow": st.LostOverflow, "Diverted": st.Diverted,
					}
					for name, n := range gotCounters {
						if (n == 1) != (name == want.counter) || n > 1 {
							t.Errorf("counters %v, want one %s", gotCounters, want.counter)
						}
					}
					if want.reason == nil {
						if wasLost || lostLog.Total() != 0 {
							t.Errorf("lost (%v, %v), log %v; want not lost", reason, wasLost, lostLog.Totals())
						}
					} else if !wasLost || reason != *want.reason || lostLog.Totals()[want.reason.String()] != 1 || lostLog.Total() != 1 {
						t.Errorf("lost (%v, %v), log %v; want one %v", reason, wasLost, lostLog.Totals(), *want.reason)
					}
					if !diverted {
						if len(rerouted) != 0 {
							t.Errorf("diverted %v, want nothing diverted", rerouted)
						}
					} else if len(rerouted) != 1 || rerouted[0].Stream != pol.stream || rerouted[0].Seq != ev.Seq || reroutedFrom[0] != org.rerouted {
						t.Errorf("diverted %v from %v, want seq %d on %s from origin %d", rerouted, reroutedFrom, ev.Seq, pol.stream, org.rerouted)
					}
				})
			}
		}
	}
}
