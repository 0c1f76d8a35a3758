package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/event"
	"muppet/internal/queue"
)

// The outbox's invariants, checked over a scripted send function: one
// local machine (machine-00, whose handler records what lands) and two
// remote ones whose frames go to rig.send instead of a transport.

const testDeadline = 10 * time.Second

// strikes records what the failure detector was told, per machine.
type strikes struct {
	mu                 sync.Mutex
	ok, fatal, transit map[string]int
}

func (s *strikes) ObserveSendOK(m string)           { s.bump(s.ok, m) }
func (s *strikes) ObserveSendFailure(m string)      { s.bump(s.fatal, m) }
func (s *strikes) ObserveTransientFailure(m string) { s.bump(s.transit, m) }
func (s *strikes) bump(to map[string]int, m string) {
	s.mu.Lock()
	to[m]++
	s.mu.Unlock()
}
func (s *strikes) counts(m string) (ok, fatal, transit int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ok[m], s.fatal[m], s.transit[m]
}

type frame struct {
	machine string
	ds      []cluster.Delivery
}

type rig struct {
	t        *testing.T
	c        *Courier
	clu      *cluster.Cluster
	counters *Counters
	tracker  *Tracker
	lost     *LostLog
	stopped  atomic.Bool
	det      *strikes

	mu       sync.Mutex
	owner    func(key string) string // key -> machine; default machine-01
	frames   []frame                 // every frame the senders shipped
	landed   []event.Event           // what reached machine-00's queue
	rerouted []event.Event           // events handed to Reroute (diverts)
	// send scripts a frame's outcome; nil accepts everything.
	send func(n int, f frame) (rejects []cluster.BatchReject, err error)
	// inflight guards "one frame in flight per destination".
	inflight map[string]bool
}

func newRig(t *testing.T, capacity int, policy queue.OverflowPolicy) *rig {
	t.Helper()
	r := &rig{
		t:        t,
		counters: NewCounters(),
		tracker:  NewTracker(),
		lost:     NewLostLog(0),
		det:      &strikes{ok: map[string]int{}, fatal: map[string]int{}, transit: map[string]int{}},
		inflight: map[string]bool{},
	}
	names := []string{"machine-00", "machine-01", "machine-02"}
	r.clu = cluster.New(cluster.Config{Names: names, Local: names[:1], Transport: cluster.NewInProc()})
	r.clu.SetBatchHandler("machine-00", func(ds []cluster.Delivery) []error {
		r.mu.Lock()
		for _, d := range ds {
			r.landed = append(r.landed, d.Ev)
		}
		r.mu.Unlock()
		r.tracker.Add(-len(ds)) // the consumer's retirement
		return nil
	})
	r.c = NewCourier(CourierConfig{
		Cluster:        r.clu,
		Counters:       r.counters,
		Tracker:        r.tracker,
		Lost:           r.lost,
		Detector:       r.det,
		Stopped:        &r.stopped,
		Policy:         policy,
		OverflowStream: "SOVER",
		OutboxCapacity: capacity,
		Route: func(fn, key string) (string, string) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if r.owner != nil {
				return r.owner(key), fn
			}
			return "machine-01", fn
		},
		FuncOf: func(worker string) string { return worker },
		Reroute: func(ev event.Event, _ Origin) {
			r.mu.Lock()
			r.rerouted = append(r.rerouted, ev)
			r.mu.Unlock()
		},
	})
	r.c.send = r.ship // before the first delivery: the senders are idle
	t.Cleanup(r.c.Close)
	return r
}

// ship is the senders' transport: it records the frame, enforces the
// frame cap and the one-in-flight rule, and applies the script.
func (r *rig) ship(machine string, ds []cluster.Delivery) (int, []cluster.BatchReject, error) {
	f := frame{machine: machine, ds: append([]cluster.Delivery(nil), ds...)}
	r.mu.Lock()
	if r.inflight[machine] {
		r.t.Errorf("two frames in flight to %s", machine)
	}
	r.inflight[machine] = true
	if len(ds) == 0 || len(ds) > maxFrameDeliveries {
		r.t.Errorf("frame of %d deliveries to %s", len(ds), machine)
	}
	n := len(r.frames)
	r.frames = append(r.frames, f)
	send := r.send
	r.mu.Unlock()
	var rejects []cluster.BatchReject
	var err error
	if send != nil {
		rejects, err = send(n, f)
	}
	r.mu.Lock()
	r.inflight[machine] = false
	r.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	return len(ds) - len(rejects), rejects, nil
}

func (r *rig) deliver(key string, seq int) {
	r.c.Deliver("U1", event.Event{Stream: "S2", Key: key, Seq: uint64(seq)}, FromWorker, nil)
}

// settled waits until nothing is in flight.
func (r *rig) settled() {
	r.t.Helper()
	done := make(chan struct{})
	go func() { r.tracker.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(testDeadline):
		r.t.Fatalf("outbox never settled: %d in flight, depths %v", r.tracker.InFlight(), r.c.OutboxDepths())
	}
}

func (r *rig) waitFor(what string, cond func() bool) {
	r.t.Helper()
	for deadline := time.Now().Add(testDeadline); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			r.t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// gate returns a send script that parks frame 0 until release is
// called, plus a wait for the sender to have reached it.
func (r *rig) gate() (entered func(), release func()) {
	in, out := make(chan struct{}), make(chan struct{})
	r.send = func(n int, _ frame) ([]cluster.BatchReject, error) {
		if n == 0 {
			close(in)
			<-out
		}
		return nil, nil
	}
	return func() {
			select {
			case <-in:
			case <-time.After(testDeadline):
				r.t.Fatal("sender never shipped the first frame")
			}
		}, sync.OnceFunc(func() {
			close(out)
		})
}

// shipped flattens the frames sent to one machine, in send order.
func (r *rig) shipped(machine string) []event.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []event.Event
	for _, f := range r.frames {
		if f.machine == machine {
			for _, d := range f.ds {
				out = append(out, d.Ev)
			}
		}
	}
	return out
}

// requireInOrder checks that every key's sequence numbers in evs are
// exactly 0..perKey-1 in order.
func requireInOrder(t *testing.T, evs []event.Event, keys, perKey int) {
	t.Helper()
	next := map[string]uint64{}
	for _, ev := range evs {
		if ev.Seq != next[ev.Key] {
			t.Fatalf("key %s: seq %d arrived where %d was due", ev.Key, ev.Seq, next[ev.Key])
		}
		next[ev.Key]++
	}
	if len(next) != keys {
		t.Fatalf("%d keys arrived, want %d", len(next), keys)
	}
	for k, n := range next {
		if n != uint64(perKey) {
			t.Fatalf("key %s: %d deliveries arrived, want %d", k, n, perKey)
		}
	}
}

func TestOutboxFIFOAcrossConcurrentAppenders(t *testing.T) {
	r := newRig(t, 64, queue.Drop) // small: appenders also exercise full waits
	const producers, each = 8, 3000
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.deliver(fmt.Sprintf("p%d", p), i)
			}
		}()
	}
	wg.Wait()
	r.settled()
	requireInOrder(t, r.shipped("machine-01"), producers, each)

	st := r.c.OutboxStats()
	if st.Deliveries != producers*each || st.Frames != uint64(len(r.frames)) {
		t.Fatalf("stats %+v over %d frames, want %d deliveries", st, len(r.frames), producers*each)
	}
	if got := r.counters.Emitted.Load(); got != producers*each {
		t.Fatalf("emitted = %d, want %d", got, producers*each)
	}
	if ok, fatal, transit := r.det.counts("machine-01"); ok != len(r.frames) || fatal+transit != 0 {
		t.Fatalf("detector saw %d ok / %d fatal / %d transient for %d frames", ok, fatal, transit, len(r.frames))
	}
	if r.c.OutboxWait().Snapshot().Count == 0 {
		t.Fatal("no append-to-acknowledged wait was sampled")
	}
	if r.lost.Total() != 0 {
		t.Fatalf("losses on a healthy link: %v", r.lost.Totals())
	}
}

// Batch size follows load: whatever queued while a frame was in flight
// leaves in the next one, capped at maxFrameDeliveries.
func TestOutboxFrameFollowsLoadUpToCap(t *testing.T) {
	r := newRig(t, 4096, queue.Drop)
	entered, release := r.gate()
	defer release()
	r.deliver("k", 0)
	entered()
	const backlog = 1000
	for i := 1; i <= backlog; i++ {
		r.deliver("k", i)
	}
	if d := r.c.OutboxDepths()["machine-01"]; d != backlog {
		t.Fatalf("depth behind the in-flight frame = %d, want %d", d, backlog)
	}
	release()
	r.settled()
	var sizes []int
	for _, f := range r.frames {
		sizes = append(sizes, len(f.ds))
	}
	if fmt.Sprint(sizes) != "[1 256 256 256 232]" {
		t.Fatalf("frame sizes %v, want [1 256 256 256 232]", sizes)
	}
	requireInOrder(t, r.shipped("machine-01"), 1, backlog+1)
}

func TestOutboxFullWaitAndWake(t *testing.T) {
	const capacity = 4
	r := newRig(t, capacity, queue.Drop)
	entered, release := r.gate()
	defer release()
	r.deliver("k", 0)
	entered() // frame 0 is in flight; the outbox itself is empty again
	for i := 1; i <= capacity; i++ {
		r.deliver("k", i)
	}
	if got := r.c.OutboxStats().FullWaits; got != 0 {
		t.Fatalf("full waits = %d before the outbox was full", got)
	}
	appended := make(chan struct{})
	go func() {
		r.deliver("k", capacity+1)
		close(appended)
	}()
	r.waitFor("the producer to find the outbox full", func() bool { return r.c.OutboxStats().FullWaits == 1 })
	select {
	case <-appended:
		t.Fatal("append into a full outbox did not wait")
	case <-time.After(5 * time.Millisecond):
	}
	release()
	select {
	case <-appended:
	case <-time.After(testDeadline):
		t.Fatal("the sender draining the outbox did not wake the waiting producer")
	}
	r.settled()
	requireInOrder(t, r.shipped("machine-01"), 1, capacity+2)
}

func TestOutboxCloseShipsWhatIsPending(t *testing.T) {
	r := newRig(t, 64, queue.Drop)
	entered, release := r.gate()
	defer release()
	r.deliver("k", 0)
	entered()
	const pending = 10
	for i := 1; i <= pending; i++ {
		r.deliver("k", i)
	}
	closed := make(chan struct{})
	go func() { r.c.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned with a frame in flight and entries pending")
	case <-time.After(5 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(testDeadline):
		t.Fatal("Close never returned")
	}
	requireInOrder(t, r.shipped("machine-01"), 1, pending+1)
	if n := r.tracker.InFlight(); n != 0 {
		t.Fatalf("%d still in flight after Close", n)
	}
	// A delivery racing the close is logged, never dropped silently.
	r.deliver("k", pending+1)
	if r.lost.Totals()[LossStopped.String()] != 1 || r.tracker.InFlight() != 0 {
		t.Fatalf("append after Close: lost %v, %d in flight", r.lost.Totals(), r.tracker.InFlight())
	}
}

// One exhausted frame is ONE suspicion strike however many deliveries it
// carried, and every one of them is logged under the transient reason.
func TestOutboxOneStrikePerExhaustedFrame(t *testing.T) {
	r := newRig(t, 4096, queue.Drop)
	entered, release := r.gate()
	defer release()
	blip := &cluster.TransientError{Op: "test-blip"}
	gated := r.send
	r.send = func(n int, f frame) ([]cluster.BatchReject, error) {
		if n == 1 {
			return nil, blip
		}
		return gated(n, f)
	}
	r.deliver("k", 0)
	entered()
	const carried = 40 // well above any suspicion threshold K
	for i := 1; i <= carried; i++ {
		r.deliver("k", i)
	}
	release()
	r.settled()
	r.deliver("k", carried+1) // the link is healthy again
	r.settled()

	if ok, fatal, transit := r.det.counts("machine-01"); ok != 2 || fatal != 0 || transit != 1 {
		t.Fatalf("detector saw %d ok / %d fatal / %d transient, want 2/0/1", ok, fatal, transit)
	}
	if got := r.lost.Totals(); got[LossTransient.String()] != carried || r.lost.Total() != carried {
		t.Fatalf("lost log %v, want %d transient-network", got, carried)
	}
	if got := r.counters.Emitted.Load(); got != 2 {
		t.Fatalf("emitted = %d, want 2", got)
	}
}

// A destination that dies loses the frame in flight (logged, not
// resent); what queued behind it follows the ring — to a local machine,
// to another outbox — or, where the ring still names the dead machine,
// is logged lost. Order per key survives the move.
func TestOutboxDeadDestinationReroutesTheQueue(t *testing.T) {
	r := newRig(t, 4096, queue.Drop)
	entered, release := r.gate()
	defer release()
	gated := r.send
	r.send = func(n int, f frame) ([]cluster.BatchReject, error) {
		if f.machine == "machine-01" && n > 0 {
			t.Errorf("frame %d shipped to the dead machine", n)
		}
		gated(n, f) // parks frame 0 until release
		if n > 0 {
			return nil, nil
		}
		// The peer answers that its machine is down; the failover the
		// detector would run moves the keys.
		r.clu.Crash("machine-01")
		r.mu.Lock()
		r.owner = func(key string) string {
			return map[string]string{"a": "machine-00", "b": "machine-02", "c": "machine-01"}[key]
		}
		r.mu.Unlock()
		return nil, cluster.ErrMachineDown
	}
	const perKey = 50
	r.deliver("a", 0)
	entered() // frame 0 carries a/0 alone; the rest queues behind it
	for i := 0; i < perKey; i++ {
		for _, k := range []string{"a", "b", "c"} {
			if k != "a" || i > 0 {
				r.deliver(k, i)
			}
		}
	}
	release()
	r.settled()

	// One report for the frame that came back, one for the pass that
	// found the rest queued behind it.
	if _, fatal, _ := r.det.counts("machine-01"); fatal != 2 {
		t.Fatalf("machine-01 reported down %d times, want 2", fatal)
	}
	// Everything of a and b outside the lost frame arrived at the new
	// owner in order; everything of c is logged.
	check := func(key string, first uint64, got []event.Event) {
		t.Helper()
		want := first
		for _, ev := range got {
			if ev.Key != key {
				continue
			}
			if ev.Seq != want {
				t.Fatalf("key %s: seq %d arrived at the new owner where %d was due", key, ev.Seq, want)
			}
			want++
		}
		if want != perKey {
			t.Fatalf("key %s: new owner saw up to seq %d, want %d", key, want, perKey)
		}
	}
	r.mu.Lock()
	landed := append([]event.Event(nil), r.landed...)
	r.mu.Unlock()
	check("a", 1, landed)
	check("b", 0, r.shipped("machine-02"))
	const wantLost = 1 + perKey
	if got := r.lost.Totals(); got[LossMachineDown.String()] != wantLost || r.lost.Total() != wantLost {
		t.Fatalf("lost log %v, want %d machine-down (the frame in flight + key c)", got, wantLost)
	}
	if got := r.counters.LostMachineDown.Load(); got != wantLost {
		t.Fatalf("LostMachineDown = %d, want %d", got, wantLost)
	}
}

// When another path on the node (a synchronous ingress send, say) finds
// the destination dead first, the sender ships nothing more to it and
// loses nothing: the queue follows the ring.
func TestOutboxKnownDeadDestinationLosesNothing(t *testing.T) {
	r := newRig(t, 4096, queue.Drop)
	entered, release := r.gate()
	defer release()
	r.deliver("k", 0)
	entered()
	const queued = 20
	for i := 1; i <= queued; i++ {
		r.deliver("k", i)
	}
	r.clu.Crash("machine-01")
	r.mu.Lock()
	r.owner = func(string) string { return "machine-00" }
	r.mu.Unlock()
	release() // frame 0 was already on the wire and is acknowledged
	r.settled()

	if len(r.frames) != 1 {
		t.Fatalf("%d frames shipped, want only the one in flight before the death was known", len(r.frames))
	}
	r.mu.Lock()
	landed := append([]event.Event(nil), r.landed...)
	r.mu.Unlock()
	requireInOrder(t, append(r.shipped("machine-01"), landed...), 1, queued+1)
	if r.lost.Total() != 0 {
		t.Fatalf("lost %v, want nothing", r.lost.Totals())
	}
	if _, fatal, _ := r.det.counts("machine-01"); fatal != 1 {
		t.Fatalf("machine-01 reported down %d times, want 1", fatal)
	}
}

// Each delivery of a frame that came back gets what a frame of one gets
// (a garbled reject never gets this far: TCP.SendBatch refuses the response).
func TestOutboxSettlesRejectsPerDelivery(t *testing.T) {
	for _, policy := range []queue.OverflowPolicy{queue.Drop, queue.Divert} {
		r := newRig(t, 64, policy)
		entered, release := r.gate()
		gated := r.send
		r.send = func(n int, f frame) ([]cluster.BatchReject, error) {
			if n != 1 {
				return gated(n, f)
			}
			return []cluster.BatchReject{
				{Index: 0, Err: queue.ErrOverflow},
				{Index: 2, Err: queue.ErrClosed},
			}, nil
		}
		r.deliver("k", 0)
		entered()
		for i := 1; i <= 4; i++ {
			r.deliver("k", i)
		}
		release()
		r.settled()

		got := r.lost.Totals()
		wantOverflow, wantDiverted := uint64(1), 0
		if policy == queue.Divert {
			wantOverflow, wantDiverted = 0, 1
		}
		if got[LossOverflow.String()] != wantOverflow || got[LossMachineDown.String()] != 1 || len(r.rerouted) != wantDiverted {
			t.Fatalf("%v: lost %v, %d diverted; want %d overflow, 1 machine-down, %d diverted", policy, got, len(r.rerouted), wantOverflow, wantDiverted)
		}
		if wantDiverted == 1 && (r.rerouted[0].Stream != "SOVER" || r.rerouted[0].Seq != 1) {
			t.Fatalf("diverted %+v, want seq 1 on SOVER", r.rerouted[0])
		}
		if ok, fatal, transit := r.det.counts("machine-01"); ok != 2 || fatal+transit != 0 {
			t.Fatalf("%v: a frame with rejects is still a delivered frame: %d ok / %d failures", policy, ok, fatal+transit)
		}
	}
}
