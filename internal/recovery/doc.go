// Package recovery owns Muppet's crash-to-healthy lifecycle
// (Section 4.3 of the paper) for both execution engines: failure
// detection on failed sends, the master-coordinated failover protocol
// (ring update, redelivery of unacknowledged events, loss accounting),
// and machine revival — rejoining the ring and warming the rejoined
// shard's slate cache from the durable store.
//
// The paper's protocol is: a worker that fails to contact a machine
// reports it to the master; the master broadcasts the failure to every
// worker; each worker removes the machine from its hash ring, so the
// dead machine's keys move to ring successors. As in the paper, the
// key-value store is a slate's only durability: what the machine had
// flushed survives, what it had not is lost. This package adds the
// recovery capability the paper leaves open — redelivering
// unacknowledged events from the per-machine replay log — plus the
// rejoin path the stock system lacks entirely.
//
// # Contract
//
// The engine runtime delegates its crash paths here through a small
// Adapter interface (Deps), so the ordering guarantees are enforced in
// exactly one place, whichever Muppet version dispatches:
//
//  1. cleanup (queue close, worker drain, cache crash) completes before
//     the machine leaves the ring — the cache crash waits out a group
//     commit in flight, so the keys' new owners read it from the store;
//  2. the ring reroutes before unacknowledged events are redelivered —
//     redelivery targets the new owners;
//  3. loss counters (queued, dirty, redelivered, warmed) are settled
//     before the failover Report is published.
//
// # Concurrency
//
// Manager.onFailure runs synchronously on the goroutine that reported
// the failure (typically the goroutine whose send returned
// cluster.ErrMachineDown, via the master's broadcast). The first
// reporter claims the incident and performs cleanup and failover
// itself; concurrent reporters of the same incident block on a
// condition variable until the failover completes. Consequently, when
// an ingestion call that observed a machine failure returns, the
// failover (including the ring update) has already happened — tests
// and callers may rely on this for exact loss accounting. All incident
// state lives under one mutex; statistics counters are atomics and
// safe to read concurrently via Status.
//
// # Failure invariants
//
// Redelivery from the event replay log is at-least-once: an event
// processed but unacknowledged at crash time is applied again.
// Rejoin (Manager.Rejoin) is idempotent per machine and refuses
// machines that never failed. In a networked cluster the hosting
// node must revive a machine before sender nodes do, so that senders
// do not route to a machine whose host still presumes it down.
package recovery
