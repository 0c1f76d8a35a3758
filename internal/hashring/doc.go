// Package hashring implements the consistent hash ring Muppet uses to
// route events to workers (Section 4.1 of the paper).
//
// Every worker holds the same ring, so after producing an event any
// worker can instantly calculate which worker the pair <event key,
// destination function> hashes to, then contact that worker directly —
// no master on the data path. When a machine's failure is reported,
// the failed node is removed from the ring; keys that hashed to it
// move to the next node on the ring and, by consistency, no other key
// moves (Section 4.3).
//
// # Contract
//
// A ring built from the same member list with the same virtual-node
// count is deterministic: every node of a cluster computes identical
// placements, which is what lets routing work with no coordination.
// Lookup of a key on an empty ring reports no owner rather than
// panicking; Add and Remove are idempotent.
//
// # Concurrency
//
// The ring is guarded by a single RWMutex: lookups run concurrently
// under the read lock; membership changes (the failover and rejoin
// paths) take the write lock. A lookup concurrent with a removal
// returns either the old or the new owner — callers (the engines)
// tolerate this because a send to the just-removed machine fails with
// cluster.ErrMachineDown and is re-routed or accounted by recovery.
package hashring
