package ingress

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/obs"
	"muppet/internal/queue"
)

// Driver is the batched-ingress front door of the engine runtime:
// IngestBatch and IngestCtx run here. Validation, stamping, fan-out,
// grouping per destination machine and send accounting are the same
// whichever Muppet version dispatches; what differs — who owns
// <function, key> — is the courier's Route and FuncOf, and what a send's
// outcome means (detector report, counter, loss reason, divert) is the
// courier's to say.
type Driver struct {
	App *core.App
	// Courier is the engine's courier: the driver sends on its wiring
	// (cluster, counters, tracker, lost log, stop flag, SourceThrottle,
	// Route, FuncOf) and has it observe every exchange and settle every
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
// the call retries until the context is done, then fails with an error
// wrapping ErrBackpressure. Failures that are not queue pressure — a
// dead destination machine, a non-input stream, a stopped engine —
// surface as themselves even when the context has expired.
func (d *Driver) IngestCtx(ctx context.Context, ev event.Event) error {
	one := [1]event.Event{ev}
	_, err := d.ingest(one[:], func() bool {
		if ctx.Err() != nil {
			return false
		}
		time.Sleep(200 * time.Microsecond)
		return true
	})
	var be *BatchError
	if err != nil && ctx.Err() != nil && errors.As(err, &be) && be.Reasons[engine.LossBatchPartial.String()] > 0 {
		return fmt.Errorf("%w: %w", ErrBackpressure, ctx.Err())
	}
	return err
}

// ingest is the batched-ingress path. wait, when non-nil, is consulted
// before retrying a delivery rejected for queue overflow; returning
// false abandons the retry and the delivery is dropped and logged.
func (d *Driver) ingest(evs []event.Event, wait func() bool) (int, error) {
	if len(evs) == 0 {
		return 0, nil
	}
	cfg := d.Courier.Config()
	if wait == nil && cfg.SourceThrottle {
		wait = func() bool {
			time.Sleep(200 * time.Microsecond)
			return true
		}
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
	plan := NewPlan(len(evs), d.Machines)
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
			machine, worker := cfg.Route(fn, ev.Key)
			if machine == "" {
				cfg.Counters.LostMachineDown.Add(1)
				cfg.Lost.Record(fn, ev, engine.LossNoRoute)
				tally.Drop(i, engine.LossNoRoute.String())
				continue
			}
			plan.Add(machine, cluster.Delivery{Worker: worker, Ev: ev, Tag: i})
		}
	}
	cfg.Counters.Ingested.Add(uint64(len(evs)))
	plan.Each(func(machine string, ds []cluster.Delivery) {
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
		if !cfg.Cluster.IsLocal(machine) {
			// The tracker was charged for the whole batch before the send;
			// accepted deliveries now belong to the hosting node's tracker
			// (it charged itself on landing), so retire them here. The
			// rejects are retired below.
			cfg.Tracker.Add(-accepted)
		}
		cfg.Counters.Emitted.Add(uint64(accepted))
		for _, rj := range rejects {
			cfg.Tracker.Add(-1)
			del := ds[rj.Index]
			if rj.Err != queue.ErrOverflow || wait == nil || !d.retry(del, wait, tally) {
				d.settle(cfg.FuncOf(del.Worker), del, rj.Err, tally)
			}
		}
	})
	plan.Release()
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

// retry re-sends one delivery a full queue rejected, as a frame of one,
// while the caller's backpressure waiter allows and the queue stays full.
// It reports whether that disposed of the delivery (it landed, or was lost
// to something other than overflow); false leaves it to settle.
func (d *Driver) retry(del cluster.Delivery, wait func() bool, tally *DropTally) bool {
	cfg := d.Courier.Config()
	fn := cfg.FuncOf(del.Worker)
	one := []cluster.Delivery{del}
	for wait() {
		// The ring may have moved the key while we waited.
		machine, worker := cfg.Route(fn, del.Ev.Key)
		if machine == "" {
			cfg.Counters.LostMachineDown.Add(1)
			cfg.Lost.Record(fn, del.Ev, engine.LossNoRoute)
			tally.Drop(del.Tag, engine.LossNoRoute.String())
			return true
		}
		// Track before sending: the consumer may process (and retire) the
		// delivery the instant it lands.
		cfg.Tracker.Inc()
		one[0].Worker = worker
		_, rejects, err := cfg.Cluster.SendBatch(machine, one)
		d.Courier.Observe(machine, err)
		if err == nil && len(rejects) > 0 {
			err = rejects[0].Err
		}
		if err == nil && cfg.Cluster.IsLocal(machine) {
			cfg.Counters.Emitted.Add(1) // its consumer retires the charge
			return true
		}
		cfg.Tracker.Dec() // lost, or a remote node tracks it from here
		if err != queue.ErrOverflow {
			d.settle(fn, one[0], err, tally)
			return true
		}
	}
	return false
}
