package ingress

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"muppet/internal/cluster"
)

// ErrStopped is returned when events are offered to an engine that has
// been stopped. The events are recorded in the engine's lost log with
// the engine-stopped reason.
var ErrStopped = errors.New("ingress: engine stopped")

// ErrBackpressure is returned by IngestCtx when the destination queues
// stayed full until the context expired — the signal a well-behaved
// source slows down on.
var ErrBackpressure = errors.New("ingress: backpressure")

// NotInputError reports an event offered on a stream the application
// does not declare as an external input. The batch it arrived in is
// rejected whole, before any side effects.
type NotInputError struct {
	Stream string
}

func (e *NotInputError) Error() string {
	return fmt.Sprintf("ingress: %q is not a declared input stream", e.Stream)
}

// BatchError reports a partially accepted batch: some deliveries were
// dropped (queue overflow, dead machine, no route). The accepted
// events were fully processed; callers deciding whether to retry or
// shed should consult Reasons.
type BatchError struct {
	// Events is the number of events offered in the batch.
	Events int
	// Accepted is the number of events every one of whose subscriber
	// deliveries was accepted.
	Accepted int
	// Dropped is the number of individual deliveries (event ×
	// destination function) that were dropped.
	Dropped int
	// Reasons tallies the dropped deliveries by loss reason, matching
	// the reasons recorded in the engine's LostEvents log.
	Reasons map[string]int
}

func (e *BatchError) Error() string {
	var reasons []string
	for r, n := range e.Reasons {
		reasons = append(reasons, fmt.Sprintf("%s=%d", r, n))
	}
	sort.Strings(reasons)
	return fmt.Sprintf("ingress: batch partially accepted: %d/%d events, %d deliveries dropped (%s)",
		e.Accepted, e.Events, e.Dropped, strings.Join(reasons, " "))
}

// Plan groups one batch's deliveries by destination machine,
// preserving arrival order within each group — the order the per-event
// path would have enqueued them in, so batching never reorders a key's
// events. Tag on each delivery carries the index of the source event
// in the batch, letting engines map per-delivery rejections back to
// events.
//
// Plans are kept: the driver's release puts one on its spare list,
// and a kept plan keeps its per-machine group capacity, so a steady
// ingestion loop stops paying allocation and GC for the (large)
// delivery structs after the first few batches — the dominant cost the
// batched path would otherwise add over fire-and-forget. A sync.Pool
// would drop them at every other GC.
type Plan struct {
	order    []string
	groups   map[string][]cluster.Delivery
	groupCap int
}

// spareDeliveries is the most deliveries a kept plan's groups have room
// for: a larger one (a bulk ingest's) is left to the GC rather than
// kept for the driver's life.
const spareDeliveries = 4096

// plan returns an empty plan, a spare one when there is one.
// deliveries is a sizing hint — the expected batch fan-out — that with
// the cluster size gives fresh machine groups their likely capacity up
// front.
func (d *Driver) plan(deliveries int) *Plan {
	var p *Plan
	d.spareMu.Lock()
	if n := len(d.spare); n > 0 {
		p, d.spare = d.spare[n-1], d.spare[:n-1]
	}
	d.spareMu.Unlock()
	if p == nil {
		p = &Plan{groups: make(map[string][]cluster.Delivery, 8)}
	}
	p.groupCap = max(deliveries/max(d.Machines, 1), 8)
	return p
}

// release empties p and keeps it, groups and their room, for the next
// batch; callers must not touch p afterwards. Each group is cleared, so
// a kept plan pins no event's bytes (a received frame's chunk).
func (d *Driver) release(p *Plan) {
	room := 0
	for m, g := range p.groups {
		clear(g)
		p.groups[m] = g[:0]
		room += cap(g)
	}
	if room > spareDeliveries {
		return
	}
	p.order = p.order[:0]
	d.spareMu.Lock()
	d.spare = append(d.spare, p)
	d.spareMu.Unlock()
}

// Add appends one delivery to its destination machine's group.
func (p *Plan) Add(machine string, d cluster.Delivery) {
	g, ok := p.groups[machine]
	if !ok {
		p.order = append(p.order, machine)
		g = make([]cluster.Delivery, 0, p.groupCap)
	} else if len(g) == 0 {
		p.order = append(p.order, machine)
	}
	p.groups[machine] = append(g, d)
}

// Deliveries returns the total deliveries planned.
func (p *Plan) Deliveries() int {
	n := 0
	for _, g := range p.groups {
		n += len(g)
	}
	return n
}

// Each visits the machine groups in first-seen order.
func (p *Plan) Each(fn func(machine string, ds []cluster.Delivery)) {
	for _, m := range p.order {
		fn(m, p.groups[m])
	}
}

// DropTally accumulates per-event and per-reason drop accounting while
// a plan executes, and converts into the batch result the public API
// returns. The clean path (no drops) allocates nothing.
type DropTally struct {
	events   int
	perEvent []int
	reasons  map[string]int
	dropped  int
}

// NewDropTally returns a tally for a batch of n events.
func NewDropTally(n int) *DropTally {
	return &DropTally{events: n}
}

// Drop records one dropped delivery of the event at index i.
func (t *DropTally) Drop(i int, reason string) {
	if t.perEvent == nil {
		t.perEvent = make([]int, t.events)
		t.reasons = make(map[string]int)
	}
	t.perEvent[i]++
	t.dropped++
	t.reasons[reason]++
}

// Result returns the fully accepted event count, and a *BatchError if
// anything was dropped (nil otherwise).
func (t *DropTally) Result() (accepted int, err error) {
	if t.dropped == 0 {
		return t.events, nil
	}
	for _, d := range t.perEvent {
		if d == 0 {
			accepted++
		}
	}
	return accepted, &BatchError{
		Events:   t.events,
		Accepted: accepted,
		Dropped:  t.dropped,
		Reasons:  t.reasons,
	}
}
