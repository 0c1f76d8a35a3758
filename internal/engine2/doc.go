// Package engine2 is Muppet 2.0 (Section 4.5 of the paper), the
// thread-pool design developed at WalmartLabs, as a dispatch strategy
// over the shared engine runtime (internal/runtime): Engine embeds
// runtime.Runtime and implements runtime.Dispatcher.
//
// What is 2.0's own, and lives here: one hash ring over machines; per
// hosted machine one runtime cell — a single central slate cache shared
// by a pool of worker threads, each with its own queue and each capable
// of running any map or update function.
//
// Incoming events are dispatched to one of two candidate queues (a
// primary and a secondary, chosen by hashing <event key, destination
// function>): if either queue's thread is already processing this
// (key, function), the event follows it; otherwise it goes to the
// primary unless the secondary is significantly shorter. This bounds
// slate contention to at most two workers per slate while letting a
// hot key's load spill onto a second thread — the hotspot relief of
// Sections 4.5 and 5. A per-machine array of slate locks serializes
// those two: a key's lock is indexed by its two candidate threads (an
// unordered pair; the primary alone under DisableDualQueue) and a
// stripe of its dispatch hash. Only those threads ever run the key, so
// only they take its lock: contention ≤ 2 holds by construction, and
// taking the lock touches no table lock or map. "Already processing"
// is one atomic slot per thread holding the hash of the (function,
// key) it is running, so dispatch takes no lock and allocates nothing
// to apply the rule.
//
// Everything else — ingest, output routing, the background flusher,
// recovery, slate reads, queries, statistics, Stop — is the runtime's;
// see its package documentation for the contract and the shutdown
// order.
//
// # Order
//
// Per-(function, key) order holds with a single queue
// (Config.DisableDualQueue). The dual-queue spill gives it up by design:
// a spilled key runs on two threads, so a later event can be applied
// before an earlier one — the price of the hotspot relief.
//
// # Concurrency
//
// The central slate cache is striped-locked, so two threads updating
// different keys never contend on one lock, and the two-choice
// dispatch bounds writers of any single slate to two threads. A
// thread's reusable emitter belongs to its loop, not its queue slot: a
// post-crash restart may briefly overlap the old loop's last
// invocation.
//
// # Failure invariants
//
// A machine crash loses its queued events and its dirty (unflushed)
// slates; both are counted exactly in the failover Report, and each
// lost queued event is in the lost log. The write-through flush policy
// closes the dirty-slate window; replaying the queued events is the
// paper's future work (§4.3), so no path delivers an event twice.
// Failover ordering is owned by internal/recovery.
package engine2
