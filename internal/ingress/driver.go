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
// grouping per destination machine, send accounting and overflow
// disposition are the same whichever Muppet version dispatches; what
// differs — who owns <function, key> — comes in through Route and
// FuncOf, as it does for the engine's courier.
type Driver struct {
	App      *core.App
	Cluster  *cluster.Cluster
	Counters *engine.Counters
	Tracker  *engine.Tracker
	Lost     *engine.LostLog
	// Sink records events ingested on a declared output stream.
	Sink *engine.Sink
	// Detector is told the outcome of every exchange with a machine.
	Detector engine.SendObserver
	// Stopped is the engine's stop flag; Seq issues its event sequence
	// numbers.
	Stopped *atomic.Bool
	Seq     *atomic.Uint64
	// Tracer, when non-nil, samples ingest calls into the
	// ingest-accept span histogram.
	Tracer *obs.Tracer
	// Machines sizes the delivery plan's per-machine groups.
	Machines int
	// Policy and OverflowStream are the engine's queue-overflow
	// disposition for rejected deliveries.
	Policy         queue.OverflowPolicy
	OverflowStream string
	// SourceThrottle makes IngestBatch wait-and-retry on overflow
	// instead of dropping, the paper's source throttling.
	SourceThrottle bool
	// Route resolves the owner of <fn, key>: the destination machine
	// and the worker addressed on it. An empty machine means no live
	// owner.
	Route func(fn, key string) (machine, worker string)
	// FuncOf maps a worker address back to its function name for loss
	// accounting.
	FuncOf func(worker string) string
	// Reroute fans a diverted event out to its stream's subscribers (the
	// engine's internal routing).
	Reroute func(ev event.Event, from engine.Origin)
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
	if wait == nil && d.SourceThrottle {
		wait = func() bool {
			time.Sleep(200 * time.Microsecond)
			return true
		}
	}
	if d.Stopped.Load() {
		for i := range evs {
			d.Lost.Record("", evs[i], engine.LossStopped)
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
			machine, worker := d.Route(fn, ev.Key)
			if machine == "" {
				d.Counters.LostMachineDown.Add(1)
				d.Lost.Record(fn, ev, engine.LossNoRoute)
				tally.Drop(i, engine.LossNoRoute.String())
				continue
			}
			plan.Add(machine, cluster.Delivery{Worker: worker, Ev: ev, Tag: i})
		}
	}
	d.Counters.Ingested.Add(uint64(len(evs)))
	plan.Each(func(machine string, ds []cluster.Delivery) {
		d.Tracker.Add(len(ds))
		accepted, rejects, err := d.Cluster.SendBatch(machine, ds)
		if err != nil {
			d.Tracker.Add(-len(ds))
			reason := d.sendFailed(machine, err)
			d.Counters.LostMachineDown.Add(uint64(len(ds)))
			for _, del := range ds {
				d.Lost.Record(d.FuncOf(del.Worker), del.Ev, reason)
				tally.Drop(del.Tag, reason.String())
			}
			return
		}
		if !d.Cluster.IsLocal(machine) {
			// The tracker was charged for the whole batch before the send;
			// accepted deliveries now belong to the hosting node's tracker
			// (it charged itself on landing), so retire them here. The
			// rejects are retired below.
			d.Detector.ObserveSendOK(machine)
			d.Tracker.Add(-accepted)
		}
		d.Counters.Emitted.Add(uint64(accepted))
		for _, rj := range rejects {
			d.Tracker.Add(-1)
			d.settleReject(ds[rj.Index], rj.Err, wait, tally)
		}
	})
	plan.Release()
	if traced {
		d.Tracer.ObserveIngestAccept(time.Since(traceStart))
	}
	return tally.Result()
}

// sendFailed tells the failure detector about a send to a machine that
// returned err, and names the reason its deliveries are lost under.
func (d *Driver) sendFailed(machine string, err error) engine.LossReason {
	switch {
	case cluster.IsTransient(err):
		// The retry budget is exhausted but the machine has not been
		// declared dead: feed the suspicion tracker (K such observations
		// escalate to failover) and log the loss under its own reason.
		d.Detector.ObserveTransientFailure(machine)
		return engine.LossTransient
	case err == cluster.ErrMachineDown:
		d.Detector.ObserveSendFailure(machine)
	}
	return engine.LossMachineDown
}

// settleReject disposes of one delivery a batch send could not place:
// retry under the caller's backpressure waiter, divert under the
// Divert policy, otherwise drop with batch-partial accounting.
func (d *Driver) settleReject(del cluster.Delivery, cause error, wait func() bool, tally *DropTally) {
	fn := d.FuncOf(del.Worker)
	if cause == queue.ErrOverflow && wait != nil {
		for wait() {
			// The ring may have moved the key while we waited.
			machine, worker := d.Route(fn, del.Ev.Key)
			if machine == "" {
				d.Counters.LostMachineDown.Add(1)
				d.Lost.Record(fn, del.Ev, engine.LossNoRoute)
				tally.Drop(del.Tag, engine.LossNoRoute.String())
				return
			}
			// Track before sending: the consumer may process (and
			// retire) the delivery the instant it lands.
			d.Tracker.Inc()
			err := d.Cluster.Send(machine, worker, del.Ev)
			if err == nil {
				d.Counters.Emitted.Add(1)
				if !d.Cluster.IsLocal(machine) {
					d.Tracker.Dec() // the hosting node tracks it from here
					d.Detector.ObserveSendOK(machine)
				}
				return
			}
			d.Tracker.Dec()
			if err == queue.ErrOverflow {
				continue
			}
			reason := d.sendFailed(machine, err)
			d.Counters.LostMachineDown.Add(1)
			d.Lost.Record(fn, del.Ev, reason)
			tally.Drop(del.Tag, reason.String())
			return
		}
	}
	switch {
	case cause == queue.ErrOverflow && d.Policy == queue.Divert &&
		d.OverflowStream != "" && del.Ev.Stream != d.OverflowStream:
		div := del.Ev
		div.Stream = d.OverflowStream
		d.Counters.Diverted.Add(1)
		d.Reroute(div, engine.FromSource)
	case cause == queue.ErrClosed:
		// The destination was crashing (or stopping) under the batch;
		// account it like any other delivery to a dying machine.
		d.Counters.LostMachineDown.Add(1)
		d.Lost.Record(fn, del.Ev, engine.LossMachineDown)
		tally.Drop(del.Tag, engine.LossMachineDown.String())
	default:
		d.Counters.LostOverflow.Add(1)
		d.Lost.Record(fn, del.Ev, engine.LossBatchPartial)
		tally.Drop(del.Tag, engine.LossBatchPartial.String())
	}
}
