package ingress

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/obs"
	"muppet/internal/queue"
)

// SourcePause is how long a source that may be slowed waits before it
// resends what a full queue rejected.
const SourcePause = 200 * time.Microsecond

// Driver is the ingress front door of the engine runtime: IngestBatch,
// IngestCtx and, under Block, fire-and-forget Ingest run here, and it is
// the one place a source waits. Validation, stamping, fan-out,
// grouping per destination machine and send accounting are the same
// whichever Muppet version dispatches; what differs — who owns
// <function, key> — is the courier's Route and FuncOf, and what a send's
// outcome means (detector report, counter, loss reason, divert) is the
// courier's to say.
type Driver struct {
	App *core.App
	// Courier is the engine's courier: the driver sends on its wiring
	// (cluster, counters, tracker, lost log, stop flag, policy, Route,
	// FuncOf) and has it observe every exchange and settle every
	// delivery that was not accepted.
	Courier *engine.Courier
	// Sink records events ingested on a declared output stream.
	Sink *engine.Sink
	// Seq issues the engine's event sequence numbers.
	Seq *atomic.Uint64
	// Tracer, when non-nil, samples ingest calls into the
	// ingest-accept span histogram.
	Tracer *obs.Tracer
	// Machines sizes the delivery plan's per-machine groups.
	Machines int

	// spare holds the delivery plans not in use, under spareMu (see
	// Plan).
	spareMu sync.Mutex
	spare   []*Plan
}

// IngestBatch feeds a batch of external input events into the engine,
// grouping the deliveries per destination machine so the cluster send,
// the in-flight tracking, and the destination queue locks are paid per
// batch rather than per event. It returns the number of events whose
// every subscriber delivery was accepted; dropped deliveries are
// reported via a *BatchError tallied by reason (each also recorded in
// the lost log). A batch containing a non-input stream is rejected
// whole with *NotInputError before any side effects.
func (d *Driver) IngestBatch(evs []event.Event) (int, error) {
	return d.ingest(evs, nil)
}

// IngestCtx ingests one event, reporting backpressure and overflow
// instead of silently dropping: while the destination queue is full
// the call resends until the context is done, then fails with an error
// wrapping ErrBackpressure. Its frames never wait on a queue, so the
// deadline holds under every policy. Failures that are not queue
// pressure — a dead destination machine, a non-input stream, a stopped
// engine — surface as themselves even when the context has expired.
func (d *Driver) IngestCtx(ctx context.Context, ev event.Event) error {
	one := [1]event.Event{ev}
	_, err := d.ingest(one[:], func() bool { return ctx.Err() == nil })
	var be *BatchError
	if err != nil && ctx.Err() != nil && errors.As(err, &be) && be.Reasons[engine.LossBatchPartial.String()] > 0 {
		return fmt.Errorf("%w: %w", ErrBackpressure, ctx.Err())
	}
	return err
}

// ingest is the batched-ingress path. wait, when non-nil, is the
// caller's deadline: no frame waits on a queue, and while wait holds,
// the deliveries a full queue rejected are routed again and resent after
// a pause; then they settle as overflow. Without one, a frame for a
// machine this node hosts may wait on its queue, and under Block the
// deliveries a peer's full queue rejected are resent until accepted —
// a source waits only in its own process. A source still waiting when
// the engine stops gives up, logged stopped.
func (d *Driver) ingest(evs []event.Event, wait func() bool) (int, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	cfg := d.Courier.Config()
	park := wait == nil
	if park && cfg.Policy == queue.Block {
		wait = func() bool { return true }
	}
	if cfg.Stopped.Load() {
		for i := range evs {
			cfg.Lost.Record("", evs[i], engine.LossStopped)
		}
		return 0, ErrStopped
	}
	for i := range evs {
		if !d.App.IsInput(evs[i].Stream) {
			return 0, &NotInputError{Stream: evs[i].Stream}
		}
	}
	var traceStart time.Time
	traced := d.Tracer.Sample()
	if traced {
		traceStart = time.Now()
	}
	now := time.Now().UnixNano()
	tally := NewDropTally(len(evs))
	plan := d.plan(len(evs))
	// Batches are usually single-stream: resolve the stream's fan-out
	// once and reuse it until the stream changes.
	var curStream string
	var subs []string
	var isOut bool
	for i := range evs {
		ev := evs[i]
		ev.Decoded = nil // only the engine attaches one, beside its own bytes
		if ev.Seq == 0 {
			ev.Seq = d.Seq.Add(1)
		}
		if ev.Ingress == 0 {
			ev.Ingress = now
		}
		if i == 0 || ev.Stream != curStream {
			curStream = ev.Stream
			subs = d.App.Subscribers(curStream)
			isOut = d.App.IsOutput(curStream)
		}
		if isOut {
			d.Sink.Record(ev)
		}
		for _, fn := range subs {
			d.add(&cfg, plan, fn, ev, i, tally)
		}
	}
	cfg.Counters.Ingested.Add(uint64(len(evs)))
	var held []cluster.Delivery
	for {
		held = d.send(&cfg, plan, park, held[:0], tally)
		d.release(plan)
		if len(held) == 0 || wait == nil || !wait() {
			break
		}
		time.Sleep(SourcePause)
		if cfg.Stopped.Load() {
			break
		}
		// The ring may have moved a key while its delivery waited.
		plan = d.plan(len(held))
		for _, del := range held {
			d.add(&cfg, plan, cfg.FuncOf(del.Worker), del.Ev, del.Tag, tally)
		}
	}
	stopped := wait != nil && cfg.Stopped.Load()
	for _, del := range held {
		if fn := cfg.FuncOf(del.Worker); stopped {
			cfg.Lost.Record(fn, del.Ev, engine.LossStopped)
			tally.Drop(del.Tag, engine.LossStopped.String())
		} else {
			d.settle(fn, del, queue.ErrOverflow, tally)
		}
	}
	if traced {
		d.Tracer.ObserveIngestAccept(time.Since(traceStart))
	}
	return tally.Result()
}

// settle gives one delivery that was not accepted the courier's
// disposition and tallies the reason it was logged lost under, if any.
func (d *Driver) settle(fn string, del cluster.Delivery, cause error, tally *DropTally) {
	if reason, lost := d.Courier.Settle(fn, del.Ev, cause, engine.FromBatch); lost {
		tally.Drop(del.Tag, reason.String())
	}
}

// add routes fn's delivery of the batch's tag-th event into plan, or
// logs it lost when its key has no live owner.
func (d *Driver) add(cfg *engine.CourierConfig, plan *Plan, fn string, ev event.Event, tag int, tally *DropTally) {
	machine, worker := cfg.Route(fn, ev.Key)
	if machine == "" {
		cfg.Counters.LostMachineDown.Add(1)
		cfg.Lost.Record(fn, ev, engine.LossNoRoute)
		tally.Drop(tag, engine.LossNoRoute.String())
		return
	}
	plan.Add(machine, cluster.Delivery{Worker: worker, Ev: ev, Tag: tag})
}

// send ships each machine group of plan as one frame and settles every
// delivery that was not accepted, except those a full queue rejected:
// it appends them to held, in plan order, for the caller. Only a frame
// for a machine this node hosts, and only when park is set, may wait on
// a queue.
func (d *Driver) send(cfg *engine.CourierConfig, plan *Plan, park bool, held []cluster.Delivery, tally *DropTally) []cluster.Delivery {
	plan.Each(func(machine string, ds []cluster.Delivery) {
		local := cfg.Cluster.IsLocal(machine)
		// One no-wait delivery makes the whole frame no-wait; a peer makes
		// every frame no-wait itself.
		ds[0].NoWait = !park
		cfg.Tracker.Add(len(ds))
		accepted, rejects, err := cfg.Cluster.SendBatch(machine, ds)
		d.Courier.Observe(machine, err)
		if err != nil {
			cfg.Tracker.Add(-len(ds))
			for _, del := range ds {
				d.settle(cfg.FuncOf(del.Worker), del, err, tally)
			}
			return
		}
		if !local {
			// The tracker was charged for the whole batch before the send;
			// accepted deliveries now belong to the hosting node's tracker
			// (it charged itself on landing), so retire them here. The
			// rejects are retired below.
			cfg.Tracker.Add(-accepted)
		}
		cfg.Counters.Emitted.Add(uint64(accepted))
		for _, rj := range rejects {
			cfg.Tracker.Add(-1)
			if del := ds[rj.Index]; rj.Err == queue.ErrOverflow {
				held = append(held, del)
			} else {
				d.settle(cfg.FuncOf(del.Worker), del, rj.Err, tally)
			}
		}
	})
	return held
}
