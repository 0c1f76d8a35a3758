package engine

import (
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
	// update invocation, forwarded after a ring change, or redelivered by
	// recovery. A worker never waits on a worker queue — a full queue
	// rejects it whatever the policy — only for room in an outbox.
	FromWorker Origin = iota
	// FromSource is an external input event offered through
	// fire-and-forget Ingest. The Block policy and SourceThrottle slow it.
	FromSource
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
// ingress driver — worker emits, ring-change forwards, recovery
// redeliveries, fire-and-forget Ingest — to the machine owning its
// <function, key>, and gives each the disposition its outcome calls for
// (settle).
//
// A machine this node hosts is delivered to synchronously. A machine
// another node hosts gets an outbox: a bounded FIFO drained by one
// sender goroutine that, each time the previous exchange has returned,
// ships everything queued (up to maxFrameDeliveries) as ONE
// Cluster.SendBatch. Batch size therefore follows load — one delivery
// per frame on an idle link, hundreds on a busy one — with no timer and
// no threshold. What the outbox guarantees:
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
//     sender waits only for its transport, never for a worker.
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
// the failure and overflow semantics of Section 4.3.
func (c *Courier) Deliver(fn string, ev event.Event, from Origin) {
	if c.cfg.Stopped.Load() {
		c.cfg.Lost.Record(fn, ev, LossStopped)
		return
	}
	throttle := from == FromSource && c.cfg.SourceThrottle
	for {
		machine, worker := c.cfg.Route(fn, ev.Key)
		if machine == "" {
			c.cfg.Counters.LostMachineDown.Add(1)
			c.cfg.Lost.Record(fn, ev, LossNoRoute)
			return
		}
		c.cfg.Tracker.Inc()
		ob := c.outboxes[machine]
		if ob != nil && !throttle {
			if !ob.put(cluster.Delivery{Worker: worker, Ev: ev}, from != fromSender) {
				c.cfg.Tracker.Dec()
				c.cfg.Lost.Record(fn, ev, LossStopped)
			}
			return
		}
		var err error
		if from == FromSource {
			err = c.cfg.Cluster.Send(machine, worker, ev)
		} else {
			err = c.cfg.Cluster.Offer(machine, worker, ev)
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
		c.observe(machine, err)
		c.settle(fn, ev, err, from)
		// Retired here whether lost or handed off: a remote machine's
		// node charged its own tracker when the event landed.
		c.cfg.Tracker.Dec()
		return
	}
}

// observe feeds the failure detector the outcome of ONE exchange with a
// machine. The detector counts "K consecutive exhausted sends": a frame
// of N deliveries is one send, or a single blip with N >= K would fail a
// healthy machine over.
func (c *Courier) observe(machine string, err error) {
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

// settle gives one delivery the disposition its send outcome calls for;
// the synchronous path and the outbox senders both end here. It does not
// touch the tracker: callers retire their charge afterwards, so a
// diverted event is charged before its original is retired.
func (c *Courier) settle(fn string, ev event.Event, err error, from Origin) {
	ct := c.cfg.Counters
	switch {
	case err == nil:
		ct.Emitted.Add(1)
	case cluster.IsTransient(err):
		// Kept apart from machine-down so flaky-network losses stay
		// distinguishable from declared-dead losses.
		ct.LostMachineDown.Add(1)
		c.cfg.Lost.Record(fn, ev, LossTransient)
	case err == queue.ErrOverflow && c.cfg.Policy == queue.Divert &&
		c.cfg.OverflowStream != "" && ev.Stream != c.cfg.OverflowStream:
		div := ev
		div.Stream = c.cfg.OverflowStream
		ct.Diverted.Add(1)
		c.cfg.Reroute(div, from)
	case err == cluster.ErrMachineDown, err == queue.ErrClosed:
		// ErrMachineDown: the event is lost and logged, not resent
		// (Section 4.3). ErrClosed: the destination queue was closed
		// between the liveness check and the enqueue — the machine is
		// crashing (or the engine stopping) under us; detection is left
		// to the next send.
		ct.LostMachineDown.Add(1)
		c.cfg.Lost.Record(fn, ev, LossMachineDown)
	default:
		ct.LostOverflow.Add(1)
		c.cfg.Lost.Record(fn, ev, LossOverflow)
	}
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

// ship sends one frame and gives each of its deliveries what a single
// Send with the same outcome gets.
func (c *Courier) ship(ob *outbox, ds []cluster.Delivery, stamps []int64) {
	_, rejects, err := c.send(ob.machine, ds)
	c.observe(ob.machine, err)
	lost := 0
	if err != nil {
		lost = len(ds)
		for i := range ds {
			c.settle(c.cfg.FuncOf(ds[i].Worker), ds[i].Ev, err, fromSender)
		}
	} else {
		for _, rj := range rejects {
			if rj.Index < 0 || rj.Index >= len(ds) || rj.Err == nil {
				continue // a garbled index never fails a healthy delivery
			}
			lost++
			d := &ds[rj.Index]
			c.settle(c.cfg.FuncOf(d.Worker), d.Ev, rj.Err, fromSender)
		}
	}
	c.cfg.Counters.Emitted.Add(uint64(len(ds) - lost))
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
	c.observe(ob.machine, cluster.ErrMachineDown)
	for i := range ds {
		fn := c.cfg.FuncOf(ds[i].Worker)
		if machine, _ := c.cfg.Route(fn, ds[i].Ev.Key); machine != ob.machine {
			c.Deliver(fn, ds[i].Ev, fromSender)
		} else {
			c.settle(fn, ds[i].Ev, cluster.ErrMachineDown, fromSender)
		}
	}
}

// OutboxStats aggregates the outboxes' counters.
type OutboxStats struct {
	// Frames counts the exchanges the senders shipped and Deliveries the
	// deliveries they carried.
	Frames     uint64
	Deliveries uint64
	// FullWaits counts appends that found their outbox full and waited
	// for the sender.
	FullWaits uint64
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
