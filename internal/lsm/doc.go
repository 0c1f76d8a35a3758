// Package lsm is a durable log-structured merge storage engine: the
// one storage engine under every kvstore.Node (over OSFS at the node's
// data directory, over a private MemFS when it has none), standing in
// for the Cassandra commitlog/SSTable machinery the paper persists
// slates in (Section 4.2).
//
// # Structure
//
// Writes land in a CRC-guarded write-ahead log (one fsync per Put
// batch — group commit) and an in-memory memtable. When the memtable
// passes its size budget it is flushed to an immutable sorted segment
// file: framed rows, a sparse index block, and a serialized bloom
// filter, bounded by a fixed footer. The flush that takes the segment
// count to the threshold starts a background compaction (the engine
// keeps no resident goroutine) that merges all segments into one,
// dropping overwritten versions, tombstones, and TTL-expired rows; an
// explicit Compact does the same to any non-empty tree. Reads consult
// the memtable, then segments newest to oldest, with the bloom filter
// gating each probe and the sparse index bounding the disk read to one
// block. Open checks every count and offset a segment file declares
// against the bytes that could hold it before trusting it.
//
// # The write path's buffers
//
// Put copies what it keeps, so a caller may reuse its rows' bytes as
// soon as Put returns. A memtable row's key and value share one slot,
// with room for the value to grow, carved from a chunk of a few KiB the
// memtable owns: n new rows allocate the chunks they fill, not n
// buffers. No slot is carved twice, and the memtable's size for the
// flush trigger counts every slot carved, so one a row has left still
// counts until the memtable is flushed and dropped whole. While a slot
// is private — no Get has returned the row and no Scan has pinned it —
// an overwrite that fits rewrites the value in place and allocates
// nothing; once a reader has been handed it, the next overwrite gets a
// new slot and the bytes handed out never change. A row handed out
// keeps its whole chunk alive, as long as its holder keeps it: a
// holder that keeps one for long (the slate cache does, for a loaded
// slate) copies it. What reads no memtable value outside the lock
// leaves rows private: LiveRows, and the segment flush, which writes
// them out under it.
//
// # Durability contract
//
// When Put returns nil, the batch is on stable storage and survives
// any crash; on error nothing is acknowledged. The MANIFEST file is
// the root pointer, replaced only by write-temp → fsync → atomic
// rename → directory fsync, so flushes and compactions commit with a
// single rename: a crash at any instant leaves either the old segment
// set or the new one, never a mix. Open recovers exactly the
// acknowledged state — manifest segments, plus intact WAL records
// (a torn tail is dropped; those bytes were never acknowledged) — and
// sweeps orphan files from interrupted flushes or compactions.
//
// The FS interface abstracts the filesystem: OSFS on disk, MemFS in
// memory, where crash tests also inject faults at any Create/Write/
// Sync/Rename/SyncDir and simulate power cuts (unsynced bytes vanish).
//
// # Concurrency
//
// One mutex guards engine state. Segments are immutable once written,
// so compaction merges outside the lock (concurrent flushes only
// prepend segments) and swaps the list under it. Scan holds the lock
// only to pin its view: the memtable's rows copied in key order (the
// memtable keeps that order incrementally, sorting only the keys new
// since the last pin) and one reference to each segment. The k-way
// merge of those sorted sources, every segment read and every callback
// run after the lock is released. Segments are reference counted, so a
// segment compaction retires is closed and removed only once the last
// scan over it has let go. Compaction and LiveRows run the same merge.
package lsm
