// Package engine holds the building blocks of the engine runtime
// (internal/runtime): the envelope type carried on worker queues, the
// quiescence tracker used to drain an application, lifetime statistics,
// the log of lost deliveries, the egress sink that fans events published
// on declared output streams out to channel subscriptions and pluggable
// handlers, and the courier that carries worker emits to their owners —
// directly on this node, through a batching per-destination outbox to
// machines other nodes host.
package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/event"
	"muppet/internal/metrics"
)

// Envelope is an event addressed to a destination function, the element
// every cell queue carries. Muppet 2.0 threads can run any function, so
// they need the destination; a Muppet 1.0 worker is bound to one
// function and its queue simply names it every time.
type Envelope struct {
	// Func is the destination map or update function.
	Func string
	// Ev is the event to process.
	Ev event.Event
}

// Tracker counts in-flight events for quiescence detection: an event is
// in flight from the moment it is accepted for delivery until its
// processing — including the enqueueing of every event it emitted — is
// complete. Drain blocks until the count reaches zero.
type Tracker struct {
	mu    sync.Mutex
	cond  *sync.Cond
	count int64
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	t := &Tracker{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Inc registers one in-flight event.
func (t *Tracker) Inc() {
	t.mu.Lock()
	t.count++
	t.mu.Unlock()
}

// Add registers n in-flight events (n may be negative to retire a
// batch's failures) under one lock acquisition; the batched ingress
// path uses it instead of n Inc calls.
func (t *Tracker) Add(n int) {
	if n == 0 {
		return
	}
	t.mu.Lock()
	t.count += int64(n)
	if t.count <= 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// Dec retires one in-flight event.
func (t *Tracker) Dec() {
	t.mu.Lock()
	t.count--
	if t.count <= 0 {
		t.cond.Broadcast()
	}
	t.mu.Unlock()
}

// InFlight reports the current in-flight count.
func (t *Tracker) InFlight() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Wait blocks until no events are in flight.
func (t *Tracker) Wait() {
	t.mu.Lock()
	for t.count > 0 {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Stats aggregates an engine's lifetime counters. The conservation
// invariant is:
//
//	Ingested + Emitted == Processed·(fan-in adjusted) + LostOverflow +
//	LostMachineDown + Diverted + DroppedNoRoute
//
// Each counter counts deliveries (event × destination function), not
// raw events. The metric and help tags are the field's /metrics name
// and description (obs.Struct registers them).
type Stats struct {
	Ingested     uint64 `metric:"muppet_engine_ingested_total" help:"External input deliveries accepted."`
	Processed    uint64 `metric:"muppet_engine_processed_total" help:"Function invocations completed."`
	Emitted      uint64 `metric:"muppet_engine_emitted_total" help:"Events published by functions and accepted for delivery."`
	SlateUpdates uint64 `metric:"muppet_engine_slate_updates_total" help:"ReplaceSlate applications."`
	LostOverflow uint64 `metric:"muppet_engine_lost_overflow_total" help:"Deliveries dropped on a full queue (Drop policy)."`
	Diverted     uint64 `metric:"muppet_engine_diverted_total" help:"Deliveries redirected to the overflow stream (Divert policy)."`
	// LostMachineDown: per Section 4.3 these are logged as lost, not
	// retried.
	LostMachineDown uint64 `metric:"muppet_engine_lost_machine_down_total" help:"Deliveries lost to a down destination machine."`
	FailureReports  uint64 `metric:"muppet_engine_failure_reports_total" help:"Machine-failure reports made to the master."`
	// MaxSlateContention: Muppet 1.0 guarantees 1; Muppet 2.0 allows at
	// most 2 (Section 4.5).
	MaxSlateContention int32 `metric:"muppet_engine_max_slate_contention" help:"Largest number of workers observed updating one slate concurrently."`
}

// Counters is the live, atomic version of Stats that engines mutate.
type Counters struct {
	Ingested        atomic.Uint64
	Processed       atomic.Uint64
	Emitted         atomic.Uint64
	SlateUpdates    atomic.Uint64
	LostOverflow    atomic.Uint64
	Diverted        atomic.Uint64
	LostMachineDown atomic.Uint64
	FailureReports  atomic.Uint64
	MaxContention   atomic.Int32

	// Latency observes end-to-end event→slate-update latencies using
	// the events' Ingress stamps.
	Latency *metrics.Histogram
}

// NewCounters returns zeroed counters with a latency histogram.
func NewCounters() *Counters {
	return &Counters{Latency: metrics.NewHistogram(0)}
}

// ObserveContention records that n workers held the same slate at
// once, keeping the maximum.
func (c *Counters) ObserveContention(n int32) {
	for {
		cur := c.MaxContention.Load()
		if n <= cur || c.MaxContention.CompareAndSwap(cur, n) {
			return
		}
	}
}

// ObserveLatency records the end-to-end latency for an event carrying
// an Ingress stamp.
func (c *Counters) ObserveLatency(e event.Event) {
	if e.Ingress > 0 {
		c.Latency.Observe(time.Duration(time.Now().UnixNano() - e.Ingress))
	}
}

// Snapshot freezes the counters into a Stats value.
func (c *Counters) Snapshot() Stats {
	return Stats{
		Ingested:           c.Ingested.Load(),
		Processed:          c.Processed.Load(),
		Emitted:            c.Emitted.Load(),
		SlateUpdates:       c.SlateUpdates.Load(),
		LostOverflow:       c.LostOverflow.Load(),
		Diverted:           c.Diverted.Load(),
		LostMachineDown:    c.LostMachineDown.Load(),
		FailureReports:     c.FailureReports.Load(),
		MaxSlateContention: c.MaxContention.Load(),
	}
}
