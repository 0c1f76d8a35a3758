// Package runtime is the one engine runtime both Muppet versions run
// on. The paper's Section 4.5 changes two things between Muppet 1.0 and
// 2.0 — how an event reaches a thread, and where slates are cached —
// and nothing else: hashing, bounded queues, the slate store and its
// flusher, failure handling, slate reads and the HTTP service are one
// system. This package is that system; internal/engine1 and
// internal/engine2 are the two dispatch strategies plugged into it.
//
// # Cells
//
// The runtime is written over a list of cells. A Cell is the unit that
// owns slates and consumes queues: a machine, an address on it, one
// slate cache and one or more event queues with the goroutines reading
// them. Muppet 1.0 builds one cell per hosted worker fn#i (address =
// the worker ID, one queue, a private cache); Muppet 2.0 builds one
// cell per hosted machine (no address — it serves every function —
// with one queue per pool thread and the machine's central cache). A
// cell owns <function, key> exactly when the dispatcher's Route names
// its machine and an address it serves; that single test is all slate
// reads, queries, cache warm-up and misplaced-slate eviction need.
//
// # Dispatcher
//
// What differs per version is behind the Dispatcher interface, seven
// methods: where <function, key> lives (Route, FuncOf), how a batch of
// deliveries addressed to a hosted machine — the only hand-off there is;
// a single emit is a batch of one — reaches its queues (EnqueueBatch),
// ring membership (SetRing, RingMembers), which machines a query scatters
// to (Scatter) and which goroutines consume a cell's queues (StartCell).
// Everything else — cluster wiring, counters, tracker, egress sink, lost
// log, metrics registry and tracer, the recovery manager and its adapter,
// the courier, the batched-ingress driver, Ingest*, output routing, the
// background flusher, Subscribe/Drain/Stop, crash and rejoin, slate
// reads, relational queries and every statistics accessor — is written
// here once. A strategy embeds Runtime, so the shared API is promoted
// onto both engine types with no forwarding code, and the strategies'
// per-event loops reach shared state through static calls.
//
// # Concurrency and shutdown
//
// Every goroutine that consumes a cell queue is started through Go,
// which counts it both engine-wide (Stop waits for it) and per cell (an
// operator kill waits for the invocation in progress). Stop's order is
// fixed: wait for quiescence, close the flushers and the queues, wait
// for the loops under stopMu, close the courier while the transport is
// still open, flush, close the sink, close the cluster. A rejoin's
// worker restart takes the same stopMu, so it can never add loops to a
// WaitGroup Stop is waiting on.
package runtime
