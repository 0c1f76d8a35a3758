// Package ingress is the shared front door of both Muppet engines:
// the batched, error-returning ingestion surface the streaming API
// redesign is built on.
//
// The paper's interface to the outside world (Sections 3 and 5) is a
// fire-and-forget Ingest(event): every external event pays a ring
// lookup, a cluster send (liveness check plus latency charge), and a
// destination queue lock on its own. At "heavy traffic from millions
// of users" those per-event costs dominate the hot path. This package
// provides the pieces that amortize them per batch instead:
//
//   - Plan groups a batch's deliveries by destination machine while
//     preserving arrival order, so one cluster.SendBatch (one liveness
//     check, one latency charge) and one queue.PutBatch per local
//     queue (one mutex acquisition) carry the whole group — the same
//     hand-off a worker's emit takes as a batch of one, except that a
//     source's batch may wait, in its own process, under Block;
//   - Driver, the one place a source waits, which runs IngestBatch,
//     IngestCtx and, under Block, Ingest over a Plan and leaves what
//     each send outcome means — detector report, counter,
//     loss reason, divert — to the engine courier's Observe and Settle;
//   - the error types (BatchError, ErrStopped, NotInputError,
//     ErrBackpressure) that make ingestion report overflow and
//     backpressure instead of silently dropping;
//   - the pull-based Source abstraction and Pump driver that feed an
//     engine in batches — used by cmd/muppet, the examples, the
//     experiment harness, and the httpapi POST /ingest endpoint.
//
// # Contract
//
// A batch ingest returns (accepted, err) where accepted counts events
// durably handed to a queue (or a remote node). A nil error means the
// whole batch was accepted; a *BatchError carries per-event rejection
// reasons positionally aligned with the input, and accepted plus
// rejected always equals the batch length — no event is silently
// dropped or double-counted. Events rejected with ErrBackpressure are
// safe to retry; events rejected with queue.ErrOverflow were dropped
// by policy and are accounted as lost.
//
// # Concurrency
//
// A Plan is single-goroutine state: it is taken from the driver's
// spare list, filled, walked (Each), and released back to it by one
// caller; that list, under its own mutex, is the Driver's only
// cross-call state, so distinct goroutines may ingest concurrently.
// Pump runs on the calling goroutine until the Source ends or its
// context is cancelled. Arrival order is preserved within one batch
// per destination; batches from concurrent ingesters interleave
// arbitrarily.
package ingress
