// Package wal implements the event replay log the paper names as
// future work: "Developing a replay capability to recover the lost
// events is a subject of future work" (Section 4.3).
//
// Each machine appends every delivery it accepts to a log and
// acknowledges it once the event is fully processed. When the machine
// dies, the unacknowledged suffix is exactly the set of events the
// stock Muppet would lose (queued plus in-flight); the engine replays
// them to the keys' new owners. The package also holds SlateBatchLog,
// a copy of each slate group-commit batch, which no engine wires: the
// key-value store's own write-ahead log is a flushed slate's
// durability, and a machine crash waits out the commit in flight. Only
// the load harness's flush driver still builds one.
//
// # Contract
//
// Append returns a sequence number; Ack marks that record processed;
// Unacked returns the unacknowledged records in append order — the
// replay set. Replay is at-least-once: an event processed but not yet
// acknowledged at crash time is replayed and applied twice.
// Exactly-once would additionally need idempotence or deduplication
// in the updaters.
//
// # Concurrency
//
// Each log is guarded by a single mutex; producers (queue consumers
// appending and acknowledging) and the recovery manager (draining the
// unacknowledged suffix) may touch it concurrently. Recovery drains a
// log only after the machine's workers have been stopped, so the
// suffix it reads is final.
//
// Substitution note: in a real deployment the log would live on
// durable local storage or a replicated log service so it survives
// the crash; here it survives because the "machine" is simulated. The
// preserved behavior is the recovery protocol, not the storage
// medium.
package wal
