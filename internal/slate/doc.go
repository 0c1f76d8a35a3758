// Package slate implements Muppet's slate management (Sections 3 and
// 4.2 of the paper): the per-<updater, key> memory of update functions,
// the in-memory slate cache on each machine, the flush policies that
// persist dirty slates to the durable key-value store, and the
// compressed encoding used when storing them.
//
// A slate is an opaque byte blob to the framework; applications often
// encode JSON for language independence, and Muppet compresses each
// slate before storing it in the key-value store, both of which this
// package reproduces.
//
// # Decoded slates (the typed API's cache slot)
//
// Typed update functions (core.Update) do not want bytes at all: their
// slate is a live Go object. The cache therefore gives each entry a
// decoded-value slot next to the encoded bytes, driven by an erased
// Codec:
//
//   - GetDecoded(k, codec) decodes the cached (or store-loaded) bytes
//     at most once per cache fill and returns the object *pinned*: the
//     caller may mutate it in place, and until the matching PutDecoded
//     the flusher, evictor, and byte readers leave the object alone
//     (reads serve the last materialized encoding; flushes keep the
//     entry dirty for the next round). For a slate that does not exist
//     yet it inserts the new entry at once, holding no slate, and hands
//     out the zero object inside it (see the entry block below).
//   - PutDecoded(k, obj, codec) marks the entry dirty and defers the
//     re-encode: FlushDirty, eviction, and byte reads (Get/Peek)
//     materialize the encoding lazily — once per flush batch or read,
//     not once per event. WriteThrough encodes immediately, preserving
//     its per-update persistence semantics.
//
// A byte-level Put on the same key drops the decoded object and makes
// the bytes the source of truth again, so classic and typed updaters
// compose against one cache. Slates at rest are unaffected: what
// reaches the Store is always the codec's plain output.
//
// # Reading decoded slates without encoding them (the query path)
//
// A query reads thousands of slates beside the updaters that write
// them. Scan is its entry: per shard it copies out, under the shard's
// lock, each entry's key and either the few scalars a FieldReader reads
// off a decoded object no updater has pinned, or the entry's immutable
// last encoding; everything else a query does to a row happens after
// the lock is dropped. A FieldReader comes from the codec when it
// implements the optional FieldCodec (core's JSONCodec adapter does,
// for slate types it can read exactly as their JSON would); when the
// codec declines, Scan hands out encodings, materializing a stale one
// under the lock exactly as Get and Peek always have. A slate caught
// mid-update is revisited once its updater lets go rather than served
// from an encoding older than an earlier read showed, so successive
// scans never see a slate go backwards. Each row also carries the
// entry's route memo (ShardedConfig.RouteHash, computed once per
// entry), and Removals counts the slates that stopped being resident,
// so a reader can tell whether the cache still holds everything a
// previous scan found stored.
//
// # The cache
//
// Sharded is the one slate cache; the engine runtime holds one per
// cell. The key space is striped over N independent shards by an FNV-1a
// hash of <updater, key>. Each shard has its own mutex, LRU list, and
// dirty list, so worker threads touching different slates proceed
// without contending on a global lock; both lists are linked through
// the entries, so marking a slate dirty writes no map. This is what the
// Muppet 2.0 central cache (Section 4.5) needs to scale past a handful
// of threads.
// NewSharded(ShardedConfig{Shards: 1}) is the single-lock LRU cache —
// the baseline the tests and benchmarks compare striping against — and
// adding MaxFlushBatch: 1 gives the per-slate flusher the group commit
// replaced.
//
// # Group-commit flushing
//
// Dirty slates reach the store through a group-commit pipeline. One
// FlushDirty call:
//
//  1. drains each shard's dirty list under that shard's lock (marking
//     the entries flushing: no longer dirty, not yet durable, and for
//     that long exempt from eviction, like a pinned entry),
//  2. cuts the drained records into bounded batches (flushBatch:
//     MaxFlushBatch records / maxFlushBytes bytes),
//  3. writes each batch to the store with a single Store.SaveBatch, a
//     multi-put (the kvstore adapter's is one Cluster.PutBatch).
//
// That is the one way a slate reaches the store. A cache with no store
// is never flushed (FlushDirty returns at once, and the engine starts
// no flusher for it): its slates stay dirty, updates nothing has saved.
// A WriteThrough update is a batch of one, taken and saved the same way
// outside the shard lock before Put or PutDecoded returns; a dirty
// slate's eviction is a batch of one saved under the shard lock. Every save marks its entry
// flushing while it is in flight and re-marks it dirty if it fails, so
// a later flush, eviction or write-through save retries it: a failed
// eviction keeps its victim resident, and nothing but a crash drops a
// dirty slate.
//
// The store is a flushed slate's one durability. Crash, the machine
// failure of Section 4.3, waits out the round in flight, so every batch
// the round carries is stored before the failover reroutes the keys;
// the cache then stays dead, caching nothing and dropping writes, until
// Revive. (ShardedConfig.WAL, an extra in-memory copy of each batch, is
// set by no engine.)
//
// When a save returns, its entries leave the flushing state and any
// shard they held over capacity is trimmed back. Until then they must
// stay resident: evicting one let a reload read the older store row
// (the updates since the previous save vanished), and evicting one
// re-dirtied let the save in flight overwrite the eviction's newer one.
// Flush latency and batch sizes are recorded in metrics.Histograms
// (FlushLatency, BatchSizes), the flush counters in FlushStats.
//
// One save of a slate is in flight at a time: takeLocked leaves an
// entry whose save has not returned dirty, so two saves of one slate
// cannot land out of order. A flush skips it until its next round; a
// WriteThrough update returns, and the save in flight, once it has
// settled, takes the entry again and saves the newer value before its
// own caller returns (commit). A refused save, on any path, counts in
// CacheStats.SaveErrors.
//
// # The entry block
//
// A slate the cache does not hold costs it one allocation: newEntry
// makes the entry, its copy of the key, room for the slate's encoding
// and — for a typed slate — the zero object the updater starts from as
// one block, rounded up a ladder of sizes. The codec allocates it, as
// only the codec knows the slate's type: every Codec embeds Alloc[S].
// GetDecoded inserts the entry pinned on the miss, so the update,
// PutDecoded and the first flush encode allocate nothing more. A byte
// slate's entry, a store-loaded one, and one whose encoding outgrows
// the ladder use the same block without the object, or with its room
// unused. The key's bytes are never written after the block is made.
//
// A flush allocates nothing per slate: the encoding lives in the entry's
// room — the block's at first, then a buffer the cache made for an
// encoding too large for it — and while the room is the cache's alone,
// the next encode rewrites it in place. A store-loaded slate is copied
// into its block's room, the load's only copy (KVStore.Load hands back
// the stored row's payload in place), so the cache keeps no store memory
// alive (a memtable row is a slice of a shared chunk) and its first
// re-encode is in place too. A save lends the room to the store for the
// length of SaveBatch, and a Store keeps no value past its SaveBatch, so
// a save — flush, write-through or eviction — does not end the room; an
// encode while the save is in flight goes to a new one. What ends it is
// handing the bytes to someone who may keep them: Get, Peek or a raw
// Scan row. A decode does not, since a Codec's Decode keeps nothing of
// the bytes it reads. A byte Put's value is the caller's and lives
// outside the room.
//
// # Storage framing
//
// The stored form of a slate (Encode/Decode) is one header byte
// followed by the payload:
//
//	header 0x06 (raw)     — payload stored verbatim
//	header 0x07 (deflate) — payload deflate-compressed
//
// The header's low three bits sit where a deflate stream carries its
// first block header and deliberately encode BTYPE=3, the reserved
// block type compress/flate never emits; the high five bits carry the
// format version (currently 0). Consequences:
//
//   - Raw-vs-deflate decision: slates below frame.MinCompressSize are
//     stored raw (deflate overhead exceeds any saving), and larger slates
//     whose deflate output is not smaller than the input fall back to
//     raw — the stored form is never more than one byte larger than
//     the slate.
//   - One format: every stored value this repository has ever made
//     durable is framed, so Decode does not guess. Empty input, a first
//     byte without the frame bits (a bare deflate stream is one: the
//     reserved block type is exactly what compress/flate never emits)
//     and an unknown version are errors.
//   - Zero-allocation saves: Encode runs through pooled flate writers
//     (a BestSpeed writer carries hundreds of KB of internal state —
//     constructing one per save used to dominate the flush path), and
//     AppendEncode reuses a caller-owned buffer so the kvstore
//     adapter's SaveBatch allocates nothing per record in steady state.
//     Decode pools its flate reader and inflate scratch.
package slate
