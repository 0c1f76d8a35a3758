package engine

import (
	"sync"

	"muppet/internal/event"
)

// LossReason classifies why a delivery was abandoned.
type LossReason int

const (
	// LossOverflow: the destination queue was full under the Drop
	// policy.
	LossOverflow LossReason = iota
	// LossMachineDown: the destination machine was dead; per §4.3 the
	// event is "lost (and logged as lost) rather than sent through the
	// event-dispatch process again".
	LossMachineDown
	// LossCrashedQueue: the event was sitting in a queue on a machine
	// that crashed.
	LossCrashedQueue
	// LossNoRoute: no live worker owned the key (every candidate
	// machine down).
	LossNoRoute
	// LossStopped: the event was offered to an engine that had already
	// been stopped. Before the streaming-ingress redesign these drops
	// were entirely silent.
	LossStopped
	// LossBatchPartial: the delivery was rejected out of a batched
	// ingest (IngestBatch) whose remainder was accepted — the
	// batch-partial failure case, kept distinct from per-event
	// overflow so operators can attribute losses to the batched path.
	LossBatchPartial
	// LossTransient: the delivery exhausted its transient-fault retry
	// budget (network blips, chaos faults) without ever reaching the
	// destination. Kept distinct from LossMachineDown so operators can
	// separate losses to a declared-dead machine from losses to a
	// flaky-but-alive network path.
	LossTransient
	// LossEncode: a typed slate stopped encoding (say a float field
	// reached +Inf), so the updates it holds cannot reach the store
	// until one succeeds. Recorded once per poisoning — Func is the
	// updater, Ev carries the key — not once per failed retry.
	LossEncode
)

// String names the reason.
func (r LossReason) String() string {
	switch r {
	case LossOverflow:
		return "overflow"
	case LossMachineDown:
		return "machine-down"
	case LossCrashedQueue:
		return "crashed-queue"
	case LossNoRoute:
		return "no-route"
	case LossStopped:
		return "engine-stopped"
	case LossBatchPartial:
		return "batch-partial"
	case LossTransient:
		return "transient-network"
	case LossEncode:
		return "encode"
	default:
		return "unknown"
	}
}

// LostEvent is one abandoned delivery with its context.
type LostEvent struct {
	// Func is the destination function that never saw the event.
	Func string
	// Ev is the abandoned event.
	Ev event.Event
	// Reason classifies the loss.
	Reason LossReason
}

// LostLog is the bounded log of abandoned deliveries the paper
// prescribes ("The dropped events can be logged for later processing
// and debugging", §4.3). It keeps the most recent entries up to its
// capacity and counts everything.
type LostLog struct {
	mu    sync.Mutex
	buf   []LostEvent
	head  int
	count uint64
	byWhy map[LossReason]uint64
	cap   int
}

// NewLostLog returns a log retaining at most capacity entries
// (default 10,000 if capacity <= 0). Its buffer grows as losses are
// recorded, up to capacity: an engine that loses nothing holds none.
func NewLostLog(capacity int) *LostLog {
	if capacity <= 0 {
		capacity = 10_000
	}
	return &LostLog{byWhy: make(map[LossReason]uint64), cap: capacity}
}

// Record logs one abandoned delivery. The log keeps its own copy of
// the event's key and value: a delivery's may share the memory of the
// frame it arrived in, which a retained entry must not keep alive.
func (l *LostLog) Record(fn string, ev event.Event, reason LossReason) {
	ev = ev.Clone()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.count++
	l.byWhy[reason]++
	e := LostEvent{Func: fn, Ev: ev, Reason: reason}
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, e)
		return
	}
	l.buf[l.head] = e
	l.head = (l.head + 1) % l.cap
}

// Total reports every loss ever recorded, including entries that have
// rotated out of the buffer.
func (l *LostLog) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count
}

// Recent returns the retained entries, oldest first.
func (l *LostLog) Recent() []LostEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]LostEvent, 0, len(l.buf))
	out = append(out, l.buf[l.head:]...)
	out = append(out, l.buf[:l.head]...)
	return out
}

// ByReason tallies retained entries per loss reason.
func (l *LostLog) ByReason() map[string]int {
	out := make(map[string]int)
	for _, e := range l.Recent() {
		out[e.Reason.String()]++
	}
	return out
}

// Totals reports every loss ever recorded per reason, including
// entries that have rotated out of the buffer — the accounting the
// streaming-ingress contract promises: no drop without a counted
// reason.
func (l *LostLog) Totals() map[string]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[string]uint64, len(l.byWhy))
	for r, n := range l.byWhy {
		out[r.String()] = n
	}
	return out
}
