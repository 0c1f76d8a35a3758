// Package engine1 is Muppet 1.0 (Sections 4.1–4.4 of the paper), the
// process-per-worker design developed at Kosmix, as a dispatch
// strategy over the shared engine runtime (internal/runtime): Engine
// embeds runtime.Runtime and implements runtime.Dispatcher.
//
// What is 1.0's own, and lives here: each function gets
// WorkersPerFunction workers fn#i, placed round-robin on the sorted
// member list; every node derives the same per-function hash ring over
// worker IDs, so events pass directly from worker to worker without a
// master on the data path (Section 4.1). Each worker is a pair of
// coupled processes — a "conductor" in charge of Muppet logistics
// (queueing, slate fetch, hashing output events to destinations) and a
// "task processor" that only runs the map or update code. Here the pair
// is a pair of goroutines exchanging request and response over
// channels, which reproduces the 1.0 design's extra intra-worker hop;
// and each worker is one runtime cell, so it has a private (disparate)
// slate cache — the limitations that motivated Muppet 2.0 and that
// experiments E4 and E5 measure.
//
// Everything else — ingest, output routing, flushing, recovery, slate
// reads, queries, statistics, Stop — is the runtime's; see its package
// documentation for the contract and the shutdown order.
//
// # Concurrency
//
// A worker's conductor is the only goroutine that touches its queue
// and its slate cache, so per-worker slates need no locks. The
// conductor/task-processor channel pair has a single sender which is
// also the closer, and the strict request/response alternation is what
// lets the conductor route from the processor's reusable emitter.
//
// # Failure invariants
//
// Failure handling follows Section 4.3: a failed send reports the
// machine to the node's recovery manager, which disables the machine's
// workers on the node's rings. The event that failed
// to reach the dead worker is lost and logged, not resent — as under
// 2.0, no path delivers an event twice.
package engine1
