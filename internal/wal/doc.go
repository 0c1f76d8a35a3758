// Package wal holds SlateBatchLog, an in-memory copy of slate
// group-commit batches: a slate.Sharded configured with one appends each
// flush batch before writing it to the key-value store, and replaying
// the log into a store reconstructs every slate the flusher persisted.
//
// No engine wires it. As in the paper, the key-value store is a flushed
// slate's one durability (the LSM's own write-ahead log makes a
// multi-put durable), and a machine crash waits out the group commit in
// flight rather than replaying a copy of it. Queued events that die
// with a machine are lost and logged (Section 4.3); the paper leaves
// their replay to future work, and no log here records them. Only the
// load harness's flush driver still builds a SlateBatchLog.
//
// # Concurrency
//
// Each log is guarded by a single mutex; flushers appending, aborting
// and truncating batches and a reader replaying them may touch it
// concurrently.
package wal
