package queue

import (
	"errors"
	"sync"
	"sync/atomic"
)

// OverflowPolicy selects what happens when an event is offered to a
// full queue.
type OverflowPolicy int

const (
	// Drop rejects the event; the caller counts it as lost (and may log
	// it for later processing and debugging, as the paper suggests).
	Drop OverflowPolicy = iota
	// Divert rejects the event but marks it for redirection to a
	// configured overflow stream, whose recipients can implement a
	// "slightly degraded" service.
	Divert
	// Block makes the producer wait until space frees up, slowing the
	// pace of passing events (the paper's source-throttling behavior
	// when applied at stream sources). It binds PutBatch — the sources;
	// the workers enqueue with OfferBatch, which never waits.
	Block
)

// String names the policy for logs and bench output.
func (p OverflowPolicy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Divert:
		return "divert"
	case Block:
		return "block"
	default:
		return "unknown"
	}
}

// ErrClosed is returned by PutBatch, OfferBatch and Get once the queue
// is closed.
var ErrClosed = errors.New("queue: closed")

// ErrOverflow is returned when the queue is full: by PutBatch under the
// Drop and Divert policies, by OfferBatch under every policy.
var ErrOverflow = errors.New("queue: overflow")

// Stats is a snapshot of a queue's lifetime accounting. The invariant
// Offered == Accepted + Dropped + Diverted always holds.
type Stats struct {
	Offered  uint64 `metric:"muppet_queue_offered_total" help:"Elements offered to worker queues."`
	Accepted uint64 `metric:"muppet_queue_accepted_total" help:"Elements accepted by worker queues."`
	Dropped  uint64 `metric:"muppet_queue_dropped_total" help:"Elements dropped by full worker queues."`
	Diverted uint64 `metric:"muppet_queue_diverted_total" help:"Elements diverted by full worker queues."`
	Blocked  uint64 `metric:"muppet_queue_blocked_total" help:"Put calls that had to wait under the Block policy."`
	MaxDepth int    `metric:"muppet_queue_max_depth" help:"Deepest any worker queue ever got."`
}

// Add accumulates o into s; MaxDepth keeps the maximum. Engines use it
// to fold a retired queue's counters (a queue replaced when a crashed
// machine's workers restart) into the successor's view.
func (s *Stats) Add(o Stats) {
	s.Offered += o.Offered
	s.Accepted += o.Accepted
	s.Dropped += o.Dropped
	s.Diverted += o.Diverted
	s.Blocked += o.Blocked
	if o.MaxDepth > s.MaxDepth {
		s.MaxDepth = o.MaxDepth
	}
}

// Queue is a bounded FIFO, safe for concurrent producers and
// consumers. The element type is generic: Muppet 1.0 workers queue
// bare events, Muppet 2.0 threads queue (function, event) envelopes.
// Its ring starts at 256 and doubles up to the capacity as it fills.
type Queue[T any] struct {
	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	buf      []T // the ring; len(buf) <= capacity
	head     int
	count    int
	capacity int
	policy   OverflowPolicy
	closed   bool
	stats    Stats
}

// New returns a queue with the given capacity and overflow policy.
// Capacity must be positive.
func New[T any](capacity int, policy OverflowPolicy) *Queue[T] {
	if capacity <= 0 {
		panic("queue: capacity must be positive")
	}
	q := &Queue[T]{
		buf:      make([]T, min(capacity, 256)),
		capacity: capacity,
		policy:   policy,
	}
	q.notEmpty = sync.NewCond(&q.mu)
	q.notFull = sync.NewCond(&q.mu)
	return q
}

// grow doubles a full ring, up to the capacity, unwrapping it so the
// oldest element lands at index 0; the caller holds q.mu.
func (q *Queue[T]) grow() {
	buf := make([]T, min(2*len(q.buf), q.capacity))
	n := copy(buf, q.buf[q.head:])
	copy(buf[n:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// PutBatch offers the elements in order under a single lock
// acquisition — a frame of one included: it is the only way in. It
// returns how many leading elements were accepted. Under Drop and
// Divert, the first element to find the queue full fails the remainder
// with ErrOverflow (the queue cannot free up while the producer holds
// the lock); under Block the producer waits for space element by
// element. A closed queue fails the remainder with ErrClosed.
func (q *Queue[T]) PutBatch(es []T) (accepted int, err error) { return q.putBatch(es, true) }

// OfferBatch is PutBatch for producers that must never be slowed — the
// workers themselves: a worker waiting on a full queue (possibly its
// own) is the workflow-internal throttling deadlock of §4.3/§5. It
// never waits; under Block a full queue rejects the remainder with
// ErrOverflow, counted Dropped, exactly as under Drop.
func (q *Queue[T]) OfferBatch(es []T) (accepted int, err error) { return q.putBatch(es, false) }

func (q *Queue[T]) putBatch(es []T, wait bool) (accepted int, err error) {
	if len(es) == 0 {
		return 0, nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	accepted, err = q.admit(es, wait)
	if accepted > 0 {
		// However admit ended, consumers parked on an empty queue must
		// learn of what WAS accepted: a batch that fills an idle queue and
		// then overflows would otherwise leave them parked over a full one.
		q.notEmpty.Broadcast()
	}
	return accepted, err
}

// admit is the admission loop; the caller holds q.mu.
func (q *Queue[T]) admit(es []T, wait bool) (accepted int, err error) {
	for i := range es {
		q.stats.Offered++
		if q.closed {
			q.stats.Offered += uint64(len(es) - i - 1)
			return accepted, ErrClosed
		}
		if q.count == q.capacity {
			rest := uint64(len(es) - i)
			switch {
			case q.policy == Divert:
				q.stats.Offered += rest - 1
				q.stats.Diverted += rest
				return accepted, ErrOverflow
			case q.policy == Drop || !wait:
				q.stats.Offered += rest - 1
				q.stats.Dropped += rest
				return accepted, ErrOverflow
			default: // Block
				q.stats.Blocked++
				// Wake consumers parked since before this batch began
				// inserting, or they and this producer would wait on
				// each other forever.
				q.notEmpty.Broadcast()
				for q.count == q.capacity && !q.closed {
					q.notFull.Wait()
				}
				if q.closed {
					q.stats.Offered += rest - 1
					return accepted, ErrClosed
				}
			}
		}
		if q.count == len(q.buf) {
			q.grow()
		}
		q.buf[(q.head+q.count)%len(q.buf)] = es[i]
		q.count++
		if q.count > q.stats.MaxDepth {
			q.stats.MaxDepth = q.count
		}
		q.stats.Accepted++
		accepted++
	}
	return accepted, nil
}

// Get removes and returns the oldest element, blocking while the queue
// is empty. It returns ErrClosed once the queue is closed and drained.
func (q *Queue[T]) Get() (T, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.notEmpty.Wait()
	}
	var zero T
	if q.count == 0 {
		return zero, ErrClosed
	}
	e := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.notFull.Signal()
	return e, nil
}

// Drain atomically closes the queue and removes every buffered
// element, returning them in FIFO order. Consumers get ErrClosed
// immediately — they cannot race the drain for the remaining elements.
// The recovery subsystem uses it to kill a crashed machine's queues:
// the machine's worker loops exit at once instead of consuming a
// backlog a dead machine could never have processed.
func (q *Queue[T]) Drain() []T {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	var zero T
	out := make([]T, 0, q.count)
	for q.count > 0 {
		out = append(out, q.buf[q.head])
		q.buf[q.head] = zero
		q.head = (q.head + 1) % len(q.buf)
		q.count--
	}
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
	return out
}

// Close marks the queue closed. Blocked producers fail with ErrClosed;
// consumers drain remaining elements and then receive ErrClosed.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.notEmpty.Broadcast()
	q.notFull.Broadcast()
}

// Len reports the current queue depth.
func (q *Queue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.count
}

// Stats returns a snapshot of the queue's accounting counters.
func (q *Queue[T]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Slot holds a queue that can be atomically replaced. The engines give
// every worker a Slot: when a crashed machine's workers restart, the
// recovery subsystem installs a fresh queue (the old one was closed by
// the failover drain), and the retired queue's lifetime counters fold
// into the slot so stats survive the replacement. Queue() is safe for
// concurrent use; Replace must not race another Replace.
type Slot[T any] struct {
	q atomic.Pointer[Queue[T]]

	mu      sync.Mutex
	retired Stats
}

// Store installs the initial queue without retiring anything.
func (s *Slot[T]) Store(q *Queue[T]) { s.q.Store(q) }

// Queue returns the current queue.
func (s *Slot[T]) Queue() *Queue[T] { return s.q.Load() }

// Replace retires the current queue's stats and installs q.
func (s *Slot[T]) Replace(q *Queue[T]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old := s.q.Load(); old != nil {
		s.retired.Add(old.Stats())
	}
	s.q.Store(q)
}

// Stats merges the live queue's counters with those of retired queues.
func (s *Slot[T]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.retired
	st.Add(s.q.Load().Stats())
	return st
}
