package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/event"
	"muppet/internal/metrics"
	"muppet/internal/queue"
)

// Origin says who produced a delivery, which decides what its producer
// may be made to wait for (§4.3/§5: only sources may be slowed).
type Origin uint8

const (
	// FromWorker is a delivery a worker produced: published by a map or
	// update invocation, or forwarded after a ring change. A worker never
	// waits on a worker queue — a full queue rejects it whatever the
	// policy — only for room in an outbox.
	FromWorker Origin = iota
	// FromSource is an external input event offered through
	// fire-and-forget Ingest. The Block policy and SourceThrottle slow it.
	FromSource
	// FromBatch is an input event the batched ingress driver sent itself
	// and settles here: a source (its diverted copy goes out FromSource)
	// whose queue rejections are logged LossBatchPartial, not LossOverflow.
	FromBatch
	// fromSender is a delivery an outbox sender re-routes while settling a
	// frame. A sender waits for nothing but its transport.
	fromSender
)

// SendObserver is the failure detector's data-path surface: the outcome
// of one exchange with a machine (recovery.Detector implements it).
type SendObserver interface {
	ObserveSendOK(machine string)
	ObserveSendFailure(machine string)
	ObserveTransientFailure(machine string)
}

// CourierConfig wires a Courier to the engine it delivers for.
type CourierConfig struct {
	Cluster  *cluster.Cluster
	Counters *Counters
	Tracker  *Tracker
	Lost     *LostLog
	// Detector is told the outcome of every exchange with a machine.
	Detector SendObserver
	// Stopped is the engine's stop flag: deliveries offered afterwards are
	// logged LossStopped.
	Stopped *atomic.Bool
	// Policy and OverflowStream are the queue-overflow disposition.
	Policy         queue.OverflowPolicy
	OverflowStream string
	// SourceThrottle makes FromSource deliveries wait-and-retry on a full
	// queue; they stay synchronous, because the retry needs the outcome.
	SourceThrottle bool
	// OutboxCapacity bounds each outbox (the engine's QueueCapacity).
	OutboxCapacity int
	// Route resolves the owner of <fn, key>: the destination machine and
	// the worker addressed on it. An empty machine means no live owner.
	Route func(fn, key string) (machine, worker string)
	// FuncOf maps a worker address back to its function name.
	FuncOf func(worker string) string
	// Reroute fans a diverted event out to its stream's subscribers (the
	// engine's route), delivering on behalf of the same origin.
	Reroute func(ev event.Event, from Origin)
}

// Courier carries every delivery that does not come through the batched
// ingress driver — worker emits, ring-change forwards, fire-and-forget
// Ingest — to the machine owning its
// <function, key>, and is the one place a send outcome, the driver's
// included, reaches the failure detector (Observe) and becomes a counter,
// a loss reason or a divert (Settle).
//
// Every hand-off is a Cluster.SendBatch. A machine this node hosts gets
// a synchronous frame of one, no-wait unless a source produced it. A
// machine another node hosts gets an outbox: a bounded FIFO drained by
// one sender goroutine that, each time the previous exchange has
// returned, ships everything queued (up to maxFrameDeliveries) as ONE
// frame — batch size follows load, with no timer and no threshold.
// Everything an outbox ships is marked no-wait: the mark crosses the
// wire, the peer's full queue rejects instead of parking the frame, and
// the reject is settled (and logged) here. A sender parked on a peer's
// queue while that peer's workers wait on their outbox back is the
// cross-node form of the §4.3/§5 throttling deadlock, so the sources that
// may be slowed (SourceThrottle, the Block policy) bypass the outbox
// with a synchronous may-wait frame of one. What the outbox guarantees:
//
//   - Order: per destination, deliveries leave in append order with one
//     frame in flight (retries stay inside SendBatch under the frame's
//     one BatchID), so a <function, key>'s emits arrive in the order
//     they were produced.
//   - Accounting: the tracker is charged at append and retired when the
//     frame's outcome is known, so Drain, Stop and rejoin's quiesce cover
//     queued deliveries; nothing is dropped without a lost-log record.
//   - Detection per frame: the failure detector sees one observation per
//     exchange however many deliveries it carried, so one blip is one
//     suspicion strike.
//   - Dead destination: the frame that came back ErrMachineDown is lost
//     and logged (§4.3: not resent); what is queued for a machine
//     presumed down is never sent, and follows the ring if it now names
//     another machine.
//   - No cycle: a full outbox makes a producer wait for the sender, and a
//     sender waits only for its transport, never for a worker on any node.
//
// An all-local engine has no outbox, no sender, and pays one nil-map
// lookup per delivery.
type Courier struct {
	cfg      CourierConfig
	outboxes map[string]*outbox // by remote machine; nil when there is none
	// send ships one frame; Cluster.SendBatch outside tests.
	send  func(machine string, ds []cluster.Delivery) (int, []cluster.BatchReject, error)
	waits *metrics.Histogram // sampled append -> frame acknowledged
	wg    sync.WaitGroup
}

// maxFrameDeliveries caps one frame, bounding its size on the wire and
// how much a lost frame can lose.
const maxFrameDeliveries = 256

// outboxSampleEvery thins the append timestamps behind the wait
// histogram to one append in this many.
const outboxSampleEvery = 64

// NewCourier builds the courier and, per machine another node hosts,
// one outbox with its sender running.
func NewCourier(cfg CourierConfig) *Courier {
	c := &Courier{cfg: cfg, send: cfg.Cluster.SendBatch, waits: metrics.NewHistogram(8192)}
	for _, name := range cfg.Cluster.MachineNames() {
		if cfg.Cluster.IsLocal(name) {
			continue
		}
		if c.outboxes == nil {
			c.outboxes = make(map[string]*outbox)
		}
		ob := &outbox{machine: name, capacity: cfg.OutboxCapacity}
		ob.notEmpty = sync.NewCond(&ob.mu)
		ob.notFull = sync.NewCond(&ob.mu)
		c.outboxes[name] = ob
		c.wg.Add(1)
		go c.senderLoop(ob)
	}
	return c
}

// Config returns the courier's wiring; the ingress driver sends on the same.
func (c *Courier) Config() CourierConfig { return c.cfg }

// Close stops the senders once they have shipped (or logged) everything
// still queued, and returns when they have exited. The engine calls it
// after its workers have stopped and before it closes the transport.
func (c *Courier) Close() {
	for _, ob := range c.outboxes {
		ob.close()
	}
	c.wg.Wait()
}

// Deliver routes an event to the machine owning <key, fn> and applies
// the failure and overflow semantics of Section 4.3. one is the caller's
// reusable frame of one (the consuming loops pass theirs), free again when
// Deliver returns; nil allocates one if the hand-off is synchronous.
func (c *Courier) Deliver(fn string, ev event.Event, from Origin, one *[1]cluster.Delivery) {
	if c.cfg.Stopped.Load() {
		c.cfg.Lost.Record(fn, ev, LossStopped)
		return
	}
	// A source that may be slowed is slowed by its own synchronous frame:
	// retried on overflow under SourceThrottle, parked on it under Block.
	throttle := from == FromSource && c.cfg.SourceThrottle
	direct := throttle || from == FromSource && c.cfg.Policy == queue.Block
	for {
		machine, worker := c.cfg.Route(fn, ev.Key)
		if machine == "" {
			c.cfg.Counters.LostMachineDown.Add(1)
			c.cfg.Lost.Record(fn, ev, LossNoRoute)
			return
		}
		c.cfg.Tracker.Inc()
		ob := c.outboxes[machine]
		if ob != nil && !direct {
			if !ob.put(cluster.Delivery{Worker: worker, Ev: ev, NoWait: true}, from != fromSender) {
				c.cfg.Tracker.Dec()
				c.cfg.Lost.Record(fn, ev, LossStopped)
			}
			return
		}
		if one == nil {
			one = new([1]cluster.Delivery)
		}
		one[0] = cluster.Delivery{Worker: worker, Ev: ev, NoWait: from != FromSource}
		_, rejects, err := c.cfg.Cluster.SendBatch(machine, one[:])
		if err == nil && len(rejects) > 0 {
			err = rejects[0].Err
		}
		if err == nil && ob == nil {
			// On a local queue: its consumer retires the tracker charge.
			c.cfg.Counters.Emitted.Add(1)
			return
		}
		if err == queue.ErrOverflow && throttle {
			// Source throttling: slow the input stream down until the
			// queue accepts (Section 5).
			c.cfg.Tracker.Dec()
			time.Sleep(200 * time.Microsecond)
			continue
		}
		c.Observe(machine, err)
		c.Settle(fn, ev, err, from)
		// Retired here whether lost or handed off: a remote machine's
		// node charged its own tracker when the event landed.
		c.cfg.Tracker.Dec()
		return
	}
}

// Observe feeds the failure detector the outcome of ONE exchange with a
// machine. The detector counts "K consecutive exhausted sends": a frame
// of N deliveries is one send, or a single blip with N >= K would fail a
// healthy machine over.
func (c *Courier) Observe(machine string, err error) {
	switch {
	case err == nil:
		// A delivered frame proves the machine reachable; any suspicion
		// run it had accumulated resets.
		c.cfg.Detector.ObserveSendOK(machine)
	case err == cluster.ErrMachineDown:
		// Detect-on-send: the detector notifies the master, whose
		// broadcast drives the failover protocol.
		c.cfg.Detector.ObserveSendFailure(machine)
	case cluster.IsTransient(err):
		// The bounded retry budget was exhausted by network blips; the
		// machine may be healthy. Raise suspicion only.
		c.cfg.Detector.ObserveTransientFailure(machine)
	}
}

// Settle gives one delivery the disposition its send outcome — the
// frame's error, or the delivery's own rejection — calls for, and returns
// the reason it logged the delivery lost under (lost false: delivered or
// diverted). The courier's synchronous path, its outbox senders and the
// ingress driver all end here. It does not touch the tracker: callers
// retire their charge afterwards, so a diverted event is charged before
// its original is retired.
func (c *Courier) Settle(fn string, ev event.Event, err error, from Origin) (reason LossReason, lost bool) {
	ct := c.cfg.Counters
	switch {
	case err == nil:
		ct.Emitted.Add(1)
		return 0, false
	case cluster.IsTransient(err):
		// Kept apart from machine-down so flaky-network losses stay
		// distinguishable from declared-dead losses.
		ct.LostMachineDown.Add(1)
		reason = LossTransient
	case err == queue.ErrOverflow && c.cfg.Policy == queue.Divert &&
		c.cfg.OverflowStream != "" && ev.Stream != c.cfg.OverflowStream:
		ev.Stream = c.cfg.OverflowStream
		ct.Diverted.Add(1)
		if from == FromBatch {
			from = FromSource
		}
		c.cfg.Reroute(ev, from)
		return 0, false
	case err == cluster.ErrMachineDown, err == queue.ErrClosed,
		err == cluster.ErrNoHandler, errors.Is(err, cluster.ErrUnknownMachine):
		// ErrMachineDown: the event is lost and logged, not resent
		// (Section 4.3). ErrClosed: the destination queue was closed
		// between the liveness check and the enqueue — the machine is
		// crashing (or the engine stopping) under us; detection is left
		// to the next send. No handler, not a member: the frame reached
		// no machine at all.
		ct.LostMachineDown.Add(1)
		reason = LossMachineDown
	case from == FromBatch:
		ct.LostOverflow.Add(1)
		reason = LossBatchPartial
	default:
		ct.LostOverflow.Add(1)
		reason = LossOverflow
	}
	c.cfg.Lost.Record(fn, ev, reason)
	return reason, true
}

// senderLoop drains one outbox: take everything queued (up to the frame
// cap), ship it as one frame, settle every delivery, repeat. It exits
// when the outbox is closed and empty.
func (c *Courier) senderLoop(ob *outbox) {
	defer c.wg.Done()
	var ds []cluster.Delivery
	var stamps []int64
	for {
		ds, stamps = ob.take(ds[:0], stamps[:0])
		if len(ds) == 0 {
			return
		}
		if c.cfg.Cluster.Machine(ob.machine).Alive() {
			c.ship(ob, ds, stamps)
		} else {
			c.reroute(ob, ds)
		}
		c.cfg.Tracker.Add(-len(ds))
	}
}

// ship sends one frame and gives each of its deliveries what a frame of
// one with the same outcome gets.
func (c *Courier) ship(ob *outbox, ds []cluster.Delivery, stamps []int64) {
	_, rejects, err := c.send(ob.machine, ds)
	c.Observe(ob.machine, err)
	if err != nil {
		for i := range ds {
			c.Settle(c.cfg.FuncOf(ds[i].Worker), ds[i].Ev, err, fromSender)
		}
	} else {
		for _, rj := range rejects {
			d := &ds[rj.Index]
			c.Settle(c.cfg.FuncOf(d.Worker), d.Ev, rj.Err, fromSender)
		}
		c.cfg.Counters.Emitted.Add(uint64(len(ds) - len(rejects)))
	}
	now := time.Now().UnixNano()
	for _, at := range stamps {
		c.waits.Observe(time.Duration(now - at))
	}
	ob.frames.Add(1)
	ob.deliveries.Add(uint64(len(ds)))
}

// reroute disposes of deliveries queued for a destination that is
// presumed down before they were sent — it answered ErrMachineDown to
// the frame ahead of them, an exhausted frame was the suspicion strike
// that escalated, or another path on this node found out first. Nothing
// of theirs has been on the wire, so none need be lost: the death is
// reported (the first report runs the failover, ring update included,
// inside the call; the master absorbs the rest), then each follows the
// ring if it now names another machine and is otherwise lost to the dead
// one and logged. A failover so costs a sender at most the one frame
// that was in flight.
func (c *Courier) reroute(ob *outbox, ds []cluster.Delivery) {
	c.Observe(ob.machine, cluster.ErrMachineDown)
	for i := range ds {
		fn := c.cfg.FuncOf(ds[i].Worker)
		if machine, _ := c.cfg.Route(fn, ds[i].Ev.Key); machine != ob.machine {
			c.Deliver(fn, ds[i].Ev, fromSender, nil)
		} else {
			c.Settle(fn, ds[i].Ev, cluster.ErrMachineDown, fromSender)
		}
	}
}

// OutboxStats aggregates the outboxes' counters.
type OutboxStats struct {
	Frames     uint64 `metric:"muppet_outbox_frames_total" help:"Frames (one SendBatch exchange each) shipped by the outbox senders."`
	Deliveries uint64 `metric:"muppet_outbox_deliveries_total" help:"Deliveries carried by the outbox senders' frames."`
	FullWaits  uint64 `metric:"muppet_outbox_full_waits_total" help:"Appends that found their outbox full and waited for the sender."`
}

// OutboxStats snapshots the aggregate over every outbox.
func (c *Courier) OutboxStats() OutboxStats {
	var s OutboxStats
	for _, ob := range c.outboxes {
		s.Frames += ob.frames.Load()
		s.Deliveries += ob.deliveries.Load()
		s.FullWaits += ob.fullWaits.Load()
	}
	return s
}

// OutboxDepths reports the queued deliveries per remote machine (nil on
// an all-local engine).
func (c *Courier) OutboxDepths() map[string]int {
	if c.outboxes == nil {
		return nil
	}
	out := make(map[string]int, len(c.outboxes))
	for name, ob := range c.outboxes {
		out[name] = ob.depth()
	}
	return out
}

// OutboxWait is the sampled histogram of the time from a delivery's
// append to the acknowledgement of the frame that carried it — the time
// a remote emit now spends outside the tracer's emit span.
func (c *Courier) OutboxWait() *metrics.Histogram { return c.waits }

// pending is one queued delivery; at is its append time (UnixNano) when
// it was sampled for the wait histogram, else 0.
type pending struct {
	d  cluster.Delivery
	at int64
}

// outbox is the FIFO of deliveries bound for one remote machine.
type outbox struct {
	machine  string
	capacity int

	mu       sync.Mutex
	notEmpty *sync.Cond // the sender waits here
	notFull  *sync.Cond // producers wait here
	q        []pending  // queued, oldest first
	appended uint64
	closed   bool

	frames     atomic.Uint64
	deliveries atomic.Uint64
	fullWaits  atomic.Uint64
}

// put appends one delivery. With wait set, a full outbox makes the
// producer wait for the sender, exactly as it used to wait for its own
// round trip; without, the delivery is appended regardless (a sender's
// re-routes, bounded by what one sender holds). It reports false when
// the outbox is closed.
func (ob *outbox) put(d cluster.Delivery, wait bool) bool {
	ob.mu.Lock()
	if wait && len(ob.q) >= ob.capacity && !ob.closed {
		ob.fullWaits.Add(1)
		for len(ob.q) >= ob.capacity && !ob.closed {
			ob.notFull.Wait()
		}
	}
	if ob.closed {
		ob.mu.Unlock()
		return false
	}
	var at int64
	if ob.appended%outboxSampleEvery == 0 {
		at = time.Now().UnixNano()
	}
	ob.appended++
	ob.q = append(ob.q, pending{d: d, at: at})
	ob.mu.Unlock()
	ob.notEmpty.Signal()
	return true
}

// take moves the queued deliveries, oldest first and at most
// maxFrameDeliveries of them, onto ds and the sampled ones' append times
// onto stamps. It blocks while the outbox is empty and open; an empty
// result means closed and drained.
func (ob *outbox) take(ds []cluster.Delivery, stamps []int64) ([]cluster.Delivery, []int64) {
	ob.mu.Lock()
	for len(ob.q) == 0 && !ob.closed {
		ob.notEmpty.Wait()
	}
	n := min(len(ob.q), maxFrameDeliveries)
	for i := range ob.q[:n] {
		ds = append(ds, ob.q[i].d)
		if ob.q[i].at != 0 {
			stamps = append(stamps, ob.q[i].at)
		}
		ob.q[i] = pending{} // drop the event's references
	}
	if n == len(ob.q) {
		ob.q = ob.q[:0] // drained: the steady state reuses the buffer in place
	} else {
		// A backlog walks the buffer forward; append replaces it, sized
		// to what is then queued, once its tail is used up — so the
		// backlog's memory is given back and nothing is ever slid down.
		ob.q = ob.q[n:]
	}
	ob.mu.Unlock()
	if n > 0 {
		ob.notFull.Broadcast()
	}
	return ds, stamps
}

func (ob *outbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.mu.Unlock()
	ob.notEmpty.Broadcast()
	ob.notFull.Broadcast()
}

func (ob *outbox) depth() int {
	ob.mu.Lock()
	defer ob.mu.Unlock()
	return len(ob.q)
}
