// Package recovery owns Muppet's crash-to-healthy lifecycle
// (Section 4.3 of the paper) for both execution engines: failure
// detection on failed sends, the failover protocol (ring update, loss
// accounting), and machine revival — rejoining the ring and warming the
// rejoined shard's slate cache from the durable store.
//
// The paper's protocol is: a worker that fails to contact a machine
// reports it to the master; the master broadcasts the failure to every
// worker; each worker removes the machine from its hash ring, so the
// dead machine's keys move to ring successors. Here every node runs
// one Manager, which plays the master's part for the workers it hosts:
// their failure reports all reach Manager.ReportFailure, which decides
// once, against its incident map, whether a report is the first for a
// down machine, a duplicate, stale (the machine is alive again) or
// racing its rejoin. The first one removes the machine from this
// node's ring; there is no broadcast to make, because the node's
// workers share that ring. Nodes do not tell each other: each learns
// of a dead peer through its own failed sends.
//
// As in the paper, the key-value store is a slate's only durability:
// what the machine had flushed survives, what it had not is lost, and
// the machine's queued events are lost and logged — replay is the
// paper's future work, and no path delivers an event twice. This
// package adds the rejoin path the stock system lacks entirely.
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
//  2. every queued event the cleanup drains is recorded in the lost
//     log;
//  3. loss counters (queued, dirty, warmed) are settled before the
//     failover Report is published.
//
// # Concurrency
//
// Manager.ReportFailure runs synchronously on the goroutine that
// reported the failure (typically the goroutine whose send returned
// cluster.ErrMachineDown, via the Detector). Failovers run one at a
// time: the first reporter runs the pending queue, and a reporter of
// another machine meanwhile queues it and returns. Every
// queued failover holds the engine's in-flight tracker, so once Drain
// returns each detected failure has failed over and its losses are
// counted — tests and callers may rely on this for exact loss
// accounting. All incident state lives under one mutex; statistics
// counters are atomics and safe to read concurrently via Status.
//
// # Failure invariants
//
// Rejoin (Manager.Rejoin) is idempotent per machine: concurrent calls
// restart the machine once, and each returns that one rejoin's report.
// It refuses machines that are not down. In a networked cluster the hosting
// node must revive a machine before sender nodes do, so that senders
// do not route to a machine whose host still presumes it down.
package recovery
