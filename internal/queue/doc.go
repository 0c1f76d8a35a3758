// Package queue implements the bounded incoming-event queues that
// every Muppet worker owns, together with the three queue-overflow
// mechanisms the paper describes in Section 4.3: dropping (with
// logging), diverting to an overflow stream for degraded service, and
// slowing down the event pace (backpressure / source throttling).
//
// # Contract
//
// Every hand-off is a batch — a frame of one included — admitted under
// one lock acquisition, leading elements first, the remainder rejected
// together. A queue accepts envelopes until its capacity is reached,
// then applies its overflow policy: Drop rejects with ErrOverflow,
// Divert rejects likewise but counts the envelope for redirection to the
// caller's overflow stream, Block parks the producer until space frees.
// PutBatch is the enqueue for producers that may be slowed: a source on
// the queue's own node. OfferBatch is its twin for producers that must
// never wait here — the workers themselves, whose full queue may be
// their own (throttling inside a workflow deadlocks, §4.3/§5), and any
// producer on another node, whose frame the receiving cluster makes
// no-wait (a source there waits in its own process and resends). It
// never waits, and under Block a full queue rejects it as Drop would.
// Offered == Accepted + Dropped + Diverted holds at all times. ErrOverflow and ErrClosed are sentinel
// errors; they are part of the wire contract — the TCP transport
// round-trips them across nodes so a remote rejection is
// errors.Is-comparable to a local one.
//
// # Concurrency
//
// Each queue is a mutex plus two condition variables (not-empty,
// not-full); any number of producers and consumers may share it.
// Close wakes all waiters; a Get on a closed, drained queue and a
// PutBatch on a closed queue both return ErrClosed rather than blocking
// forever — the engines rely on this to shut down and to tear down
// crashed machines without leaking goroutines.
package queue
