package slate

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/metrics"
	"muppet/internal/wal"
)

// ShardedConfig tunes a sharded slate store.
type ShardedConfig struct {
	// Shards is the number of independent stripes (default 16). More
	// shards means less lock contention between worker threads; the
	// per-shard state is small, so oversizing is cheap.
	Shards int
	// Capacity is the maximum number of cached slates across all
	// shards (default 10000). Each shard gets an equal slice of it.
	Capacity int
	// Policy selects the flush behavior.
	Policy FlushPolicy
	// Store is the durable backing; nil disables persistence. Every save
	// is one SaveBatch: a group-commit flush batch, or the one record of
	// a write-through update or of a dirty slate's eviction.
	Store Store
	// WAL, when set, receives a copy of every flush batch before the
	// batch is written to the store. No engine sets it: the store's own
	// write-ahead log is a flushed slate's durability, and Crash waits
	// out the commit in flight. It remains only because the flush driver
	// of the load harness (bench/) still sets it; it goes when that
	// driver stops.
	WAL *wal.SlateBatchLog
	// MaxFlushBatch bounds records per group-commit batch (default 256).
	MaxFlushBatch int
	// WALCheckpoint truncates the WAL after a fully successful flush,
	// so it retains only batches not yet known durable in the store.
	// Kept for the same reason as WAL.
	WALCheckpoint bool
	// TTLFor returns the slate TTL for an updater; nil means forever.
	TTLFor func(updater string) time.Duration
	// OnPoison, when set, is told the key of a slate whose encode has
	// just failed for the first time since it last succeeded — once per
	// poisoning, not per retry. It runs under the shard lock.
	OnPoison func(Key)
	// RouteHash, when set, is the owner's ring hash of <updater, key>, a
	// pure function of the pair: Scan computes it once per resident
	// slate, keeps it on the entry, and hands it out as CacheRow.Route.
	RouteHash func(updater, key string) uint64
}

func (c *ShardedConfig) fill() {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Capacity <= 0 {
		c.Capacity = 10_000
	}
	// Per-shard capacity rounds up, so more shards than slates would
	// inflate the effective capacity; clamp to keep it honest for tiny
	// caches (the eviction experiments rely on exact small capacities).
	if c.Shards > c.Capacity {
		c.Shards = c.Capacity
	}
	if c.MaxFlushBatch <= 0 {
		c.MaxFlushBatch = 256
	}
}

// maxFlushBytes bounds a group-commit batch's total slate bytes.
const maxFlushBytes = 1 << 20

// shard is one stripe: a small LRU cache with its own mutex and dirty
// list.
type shard struct {
	mu       sync.Mutex
	capacity int
	items    map[Key]*entry
	// lru is the sentinel of a circular list through every entry in
	// items: lru.next is the most recently used, lru.prev the least.
	lru entry
	// dirty is the sentinel of the dirty list, linked like lru through
	// dprev and dnext, oldest first: an entry is dirty while on it.
	dirty entry
	stats CacheStats
	// enc is the scratch a typed slate is encoded into before it is
	// copied to its entry (see encodeLocked).
	enc []byte
	// dead is set by Crash and cleared by Revive: the shard caches
	// nothing and refuses writes in between.
	dead bool
}

// FlushStats counts group-commit activity.
type FlushStats struct {
	// Flushes is the number of FlushDirty calls that found dirty work.
	Flushes uint64 `metric:"muppet_slate_flush_rounds_total" help:"Group-commit flush rounds."`
	Batches uint64 `metric:"muppet_slate_flush_batches_total" help:"Multi-put batches written by flush rounds."`
	Records uint64 `metric:"muppet_slate_flush_records_total" help:"Slate records written by flush rounds."`
	// Errors counts batches whose store write failed (their records
	// were re-marked dirty for retry).
	Errors uint64 `metric:"muppet_slate_flush_errors_total" help:"Flush batches that failed."`
}

// Add accumulates s into t (engines aggregate per-machine or
// per-worker stores with it).
func (t *FlushStats) Add(s FlushStats) {
	t.Flushes += s.Flushes
	t.Batches += s.Batches
	t.Records += s.Records
	t.Errors += s.Errors
}

// Sharded is a striped slate store: the key space is divided over
// independent shards by an FNV-1a hash of <updater, key>, and dirty
// slates are persisted by a group-commit flush pipeline. It is safe
// for concurrent use. See the package documentation for the design.
type Sharded struct {
	cfg    ShardedConfig
	shards []*shard

	flushMu      sync.Mutex    // serializes group commits
	recs         []BatchRecord // FlushDirty's scratch; guarded by flushMu
	flushes      atomic.Uint64
	batches      atomic.Uint64
	records      atomic.Uint64
	flushErrors  atomic.Uint64
	saves        atomic.Uint64 // StoreSaves: records issued to the store, failures taken back
	refused      atomic.Uint64 // SaveErrors: records the store refused
	removals     atomic.Uint64 // see Removals
	flushLatency *metrics.Histogram[time.Duration]
	batchSizes   *metrics.Histogram[int64]
}

// NewSharded returns a sharded store with the given configuration.
func NewSharded(cfg ShardedConfig) *Sharded {
	cfg.fill()
	s := &Sharded{
		cfg:          cfg,
		shards:       make([]*shard, cfg.Shards),
		flushLatency: metrics.NewHistogram[time.Duration](0),
		batchSizes:   metrics.NewHistogram[int64](0),
	}
	// Distribute the capacity exactly: the first Capacity%Shards
	// shards hold one extra slate, so the totals match the configured
	// bound (eviction experiments rely on exact small capacities).
	base, rem := cfg.Capacity/cfg.Shards, cfg.Capacity%cfg.Shards
	for i := range s.shards {
		capacity := base
		if i < rem {
			capacity++
		}
		s.shards[i] = &shard{capacity: capacity, items: make(map[Key]*entry)}
		s.shards[i].clearLists()
	}
	return s
}

// clearLists empties sh's LRU and dirty lists. Caller holds sh.mu (or
// owns sh).
func (sh *shard) clearLists() {
	sh.lru.prev, sh.lru.next = &sh.lru, &sh.lru
	sh.dirty.dprev, sh.dirty.dnext = &sh.dirty, &sh.dirty
}

// pushFront links e in as sh's most recently used entry.
func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = &sh.lru, sh.lru.next
	e.prev.next, e.next.prev = e, e
}

// unlink takes e out of the LRU list it is in.
func (e *entry) unlink() {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// touch makes e, which is in sh's LRU list, its most recently used.
func (sh *shard) touch(e *entry) {
	e.unlink()
	sh.pushFront(e)
}

// shardFor stripes a key over the shards with FNV-1a.
func (s *Sharded) shardFor(k Key) *shard {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(k.Updater); i++ {
		h ^= uint64(k.Updater[i])
		h *= 1099511628211
	}
	// Separator byte (cannot appear in UTF-8 function names) keeps
	// ("ab","c") distinct from ("a","bc").
	h ^= 0xff
	h *= 1099511628211
	for i := 0; i < len(k.Key); i++ {
		h ^= uint64(k.Key[i])
		h *= 1099511628211
	}
	return s.shards[h%uint64(len(s.shards))]
}

func (s *Sharded) ttl(k Key) time.Duration {
	if s.cfg.TTLFor == nil {
		return 0
	}
	return s.cfg.TTLFor(k.Updater)
}

// Get returns the slate for k: a cache hit, or a load-through from the
// durable store. A nil slate with nil error means the slate does not
// exist yet (or expired): per Section 4.2 the updater then initializes
// a fresh one.
func (s *Sharded) Get(k Key) ([]byte, error) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := s.lookupLocked(sh, k)
	if e == nil {
		return nil, err
	}
	return s.snapshotLocked(sh, e), nil
}

// lookupLocked returns k's entry, promoted to most recently used: a
// cache hit, or on a miss the store's row, inserted clean. A nil entry
// with nil error means the store has no slate for k. A crashed cache
// reads through without caching: the entry it returns is not resident,
// so whatever a caller does to it (a pin, a decode) is dropped with it.
// Caller holds sh.mu.
//
// The store round-trip holds the shard lock: releasing it would let a
// concurrent Put-then-evict land a newer value in the store that this
// load has already missed, and the re-insert would cache the stale copy
// as clean. A slow load therefore stalls one stripe, not the whole
// cache.
func (s *Sharded) lookupLocked(sh *shard, k Key) (*entry, error) {
	if e, ok := sh.items[k]; ok {
		sh.stats.Hits++
		sh.touch(e)
		return e, nil
	}
	sh.stats.Misses++
	if s.cfg.Store == nil {
		return nil, nil
	}
	sh.stats.StoreLoads++
	v, found, err := s.cfg.Store.Load(k)
	if err != nil || !found {
		return nil, err
	}
	// The entry keeps a copy in its own room, the only copy the load
	// makes: the store's bytes may be part of a larger buffer (a memtable
	// chunk) it must not keep alive, and the copy is the entry's to
	// rewrite at its next encode.
	e, _ := newEntry[struct{}](k, grown(len(v)))
	e.hold(v)
	if sh.dead {
		return e, nil
	}
	s.insertLocked(sh, e)
	s.trimLocked(sh)
	return e, nil
}

// Peek returns the cached slate without promoting it or falling back
// to the store; the HTTP slate-read path uses the cache "rather than
// the durable key-value store to ensure an up-to-date reply"
// (Section 4.4) but must not disturb LRU order for read-only probes.
func (s *Sharded) Peek(k Key) ([]byte, bool) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[k]; ok {
		return s.snapshotLocked(sh, e), true
	}
	return nil, false
}

// Put replaces the slate for k (the updater's replaceSlate call). With
// WriteThrough the new value is saved before Put returns. A crashed
// cache drops it (see Crash).
func (s *Sharded) Put(k Key, value []byte) error { return s.put(k, value, nil, nil) }

// GetDecoded is the typed read path: it returns the decoded slate
// object for k, decoding the cached (or store-loaded) bytes through
// codec at most once per cache fill. The returned object is pinned
// until the matching PutDecoded: the caller may mutate it in place, and
// flushes skip the entry in the meantime. A slate that does not exist
// yet is a fresh zero object, the one inside the new entry the call
// inserts for it (Alloc): the entry holds no slate — reads find none —
// until the PutDecoded. A nil object comes only with an error, or from
// a crashed cache, which inserts nothing; the caller then starts from
// Codec.New.
func (s *Sharded) GetDecoded(k Key, codec Codec) (any, error) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, err := s.lookupLocked(sh, k)
	if err != nil || (e == nil && sh.dead) {
		return nil, err
	}
	if e == nil {
		var v any
		e, v = codec.newEntry(k, newSlateRoom)
		e.decoded, e.codec, e.pins = v, codec, 1
		// No trim: the entry is pinned, and PutDecoded trims once the
		// update is done.
		s.insertLocked(sh, e)
		return v, nil
	}
	if e.decoded == nil {
		v, err := codec.Decode(e.value)
		if err != nil {
			sh.stats.DecodeErrors++
			return nil, err
		}
		e.decoded, e.codec = v, codec
	}
	e.pins++
	return e.decoded, nil
}

// PutDecoded is the typed write path — install the (usually
// mutated-in-place) decoded object, mark the entry dirty, and defer the
// encode to the next flush or external read. It releases the pin taken
// by GetDecoded. Under WriteThrough the object is encoded and saved
// before PutDecoded returns, and a crashed cache drops it, exactly like
// Put.
func (s *Sharded) PutDecoded(k Key, v any, codec Codec) error { return s.put(k, nil, v, codec) }

// put is Put (codec nil: value is the slate) and PutDecoded (v is the
// slate): install the new slate and mark its entry dirty, then, under
// WriteThrough, save it as a one-record batch outside the shard lock
// (commit). While that save is in flight the entry is flushing, so it
// cannot be evicted; a failed save leaves it dirty for the next flush,
// eviction or write-through save of the key to retry, and is returned.
// A slate an updater still holds pinned is left dirty, unsaved. So is
// one whose previous save is still in flight: one save of a slate at a
// time, or the older could land last; the save in flight saves it
// again once it returns (settleChunk).
func (s *Sharded) put(k Key, value []byte, v any, codec Codec) error {
	sh := s.shardFor(k)
	sh.mu.Lock()
	if sh.dead {
		sh.stats.DirtyLost++
		sh.mu.Unlock()
		return nil
	}
	e, resident := sh.items[k]
	if !resident {
		room := 0 // a byte slate is the caller's bytes
		if codec != nil {
			room = newSlateRoom
		}
		e, _ = newEntry[struct{}](k, room)
	}
	if codec == nil {
		sh.unpoisonLocked(e)
		e.setBytesLocked(value)
	} else {
		e.setDecodedLocked(v, codec)
	}
	if resident {
		sh.markDirtyLocked(e)
		sh.touch(e)
		// The pin this put released may have held the shard over its
		// capacity: a new slate's entry goes in pinned, at GetDecoded.
		s.trimLocked(sh)
	} else {
		// The slate goes in before the trim: making room may evict this
		// very entry (every other one pinned or flushing), and what an
		// eviction saves must be the new slate.
		s.insertLocked(sh, e)
		sh.markDirtyLocked(e)
		s.trimLocked(sh)
	}
	// An entry that evicted itself was saved by the eviction: clean.
	if s.cfg.Policy != WriteThrough || s.cfg.Store == nil || !e.isDirty() || e.pins > 0 {
		sh.mu.Unlock()
		return nil
	}
	rec, err := s.takeLocked(sh, e)
	sh.mu.Unlock()
	if errors.Is(err, errSaving) {
		return nil
	}
	if err != nil {
		return err
	}
	return s.commit([]BatchRecord{rec})
}

// Delete removes the slate from the cache without persisting it.
func (s *Sharded) Delete(k Key) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.items[k]; ok {
		s.dropLocked(sh, e)
	}
}

// dropLocked takes e out of sh: its map, both lists and the poisoned
// count. Caller holds sh.mu.
func (s *Sharded) dropLocked(sh *shard, e *entry) {
	sh.unpoisonLocked(e)
	e.unlink()
	e.unlinkDirty()
	delete(sh.items, e.key)
	s.removals.Add(1)
}

// Removals counts the slates that have stopped being resident: evicted,
// deleted or crashed away. It is bumped under the lock of the shard the
// slate left, so a Scan that missed a slate for that reason finds the
// count moved when it reads it afterwards. Inserts never move it: a
// reader that has shown every stored slate to be resident may keep that
// conclusion while the count holds.
func (s *Sharded) Removals() uint64 { return s.removals.Load() }

// insertLocked adds a new, clean entry to sh; the caller trims the shard back
// to its capacity after. Caller holds sh.mu. The entry keeps its own
// copy of the key, in its block (newEntry): a key taken off an event may
// share the memory of the frame or document it arrived in, which a
// resident slate must not keep alive. So every map assignment keys by
// e.key, never by the caller's k.
func (s *Sharded) insertLocked(sh *shard, e *entry) {
	sh.pushFront(e)
	sh.items[e.key] = e
}

// trimLocked evicts until the shard is within its capacity or nothing
// in it can be evicted. Caller holds sh.mu.
func (s *Sharded) trimLocked(sh *shard) {
	for len(sh.items) > sh.capacity && s.evictLocked(sh) {
	}
}

// evictLocked evicts the shard's least recently used entry that is
// neither pinned nor flushing. A pinned entry's decoded object is in an
// updater's hands and cannot be encoded for persistence; a flushing
// entry must stay resident until its save is in the store. The walk
// skips both (the shard may exceed capacity for the pin's microseconds
// or the write's milliseconds; settleChunk trims it back). It reports
// whether a victim was found.
func (s *Sharded) evictLocked(sh *shard) bool {
	refused := false // the store failed a save in this walk
	for e := sh.lru.prev; e != &sh.lru; e = e.prev {
		if e.pins > 0 || e.flushing {
			continue
		}
		if e.isDirty() && s.cfg.Store != nil {
			// Interval and OnEvict save a dirty slate on eviction, and
			// so does WriteThrough one whose own save failed: a one-record
			// batch, under the shard lock like a load. A slate that does
			// not encode, or that the store refuses, stays resident and
			// dirty rather than be dropped; after one refusal the walk
			// looks for a clean victim only.
			if refused {
				continue
			}
			rec, err := s.takeLocked(sh, e)
			if err != nil {
				continue
			}
			err = s.save([]BatchRecord{rec})
			sh.settleLocked(e, err != nil)
			if err != nil {
				refused = true
				continue
			}
		}
		s.dropLocked(sh, e)
		sh.stats.Evictions++
		return true
	}
	return false
}

// errSaving is takeLocked's refusal of an entry whose save is in
// flight.
var errSaving = errors.New("slate: a save of this slate is in flight")

// takeLocked hands a dirty entry to a save (there is a store): it
// materializes the entry's encoding and marks the entry flushing — no
// longer dirty, not yet durable, and until the save settles exempt
// from eviction. An entry already flushing is left
// dirty (errSaving): two saves of one slate in flight could land in
// either order. A failed encode also leaves the entry dirty and is
// returned. Caller holds sh.mu and has checked e.pins == 0.
func (s *Sharded) takeLocked(sh *shard, e *entry) (BatchRecord, error) {
	if e.flushing {
		return BatchRecord{}, errSaving
	}
	if err := s.encodeLocked(sh, e); err != nil {
		return BatchRecord{}, err
	}
	e.unlinkDirty()
	e.flushing = true
	return BatchRecord{K: e.key, Value: e.value, TTL: s.ttl(e.key), e: e}, nil
}

// markDirtyLocked puts e, which is resident in sh, at the end of sh's
// dirty list unless it is on it already. Caller holds sh.mu.
func (sh *shard) markDirtyLocked(e *entry) {
	if e.dnext == nil {
		e.dprev, e.dnext = sh.dirty.dprev, &sh.dirty
		e.dprev.dnext, e.dnext.dprev = e, e
	}
}

// isDirty reports whether e holds an update no save has taken.
func (e *entry) isDirty() bool { return e.dnext != nil }

// unlinkDirty takes e off the dirty list it is on, if any.
func (e *entry) unlinkDirty() {
	if e.dnext != nil {
		e.dprev.dnext, e.dnext.dprev = e.dnext, e.dprev
		e.dprev, e.dnext = nil, nil
	}
}

// FlushDirty persists every dirty slate (the periodic flush of the
// Interval policy, driven by the engine's background I/O thread)
// through the group-commit pipeline: drain every shard's dirty list,
// cut the records into batches (flushBatch), and write each batch to
// the store with a single multi-put (copying it into cfg.WAL first, when
// one is set). It returns the number of slates durably written. An entry
// handed to a batch is marked flushing — un-evictable — until its
// batch's store write has returned; failed batches are re-marked dirty
// and retried by the next flush. A cache with no store has nowhere to
// write: FlushDirty returns at once, and its slates stay dirty — an
// update nothing has saved.
func (s *Sharded) FlushDirty() (int, error) {
	if s.cfg.Store == nil {
		return 0, nil
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	start := time.Now()
	recs := s.recs[:0]
	defer func() {
		clear(recs) // the idle scratch must not keep the slates' bytes alive
		s.recs = recs[:0]
	}()
	for _, sh := range s.shards {
		sh.mu.Lock()
		next := sh.dirty.dnext
		for e := next; e != &sh.dirty; e = next {
			next = e.dnext // takeLocked unlinks e
			// A pinned entry's decoded object is being mutated by an
			// updater right now; leave it dirty for the next flush. A
			// stale entry encodes here — once per flush batch, not per
			// event, which is the decode-once design's whole point.
			if e.pins > 0 {
				continue
			}
			if rec, err := s.takeLocked(sh, e); err == nil {
				recs = append(recs, rec)
			}
		}
		sh.mu.Unlock()
	}
	if len(recs) == 0 {
		return 0, nil
	}
	s.flushes.Add(1)
	var firstErr error
	flushed := 0
	for rest := recs; len(rest) > 0; {
		chunk := flushBatch(rest, s.cfg.MaxFlushBatch, maxFlushBytes)
		rest = rest[len(chunk):]
		var walSeq uint64
		if s.cfg.WAL != nil {
			walRecs := make([]wal.SlateRecord, len(chunk))
			for i, r := range chunk {
				walRecs[i] = wal.SlateRecord{Updater: r.K.Updater, Key: r.K.Key, Value: r.Value, TTL: r.TTL}
			}
			walSeq = s.cfg.WAL.AppendBatch(walRecs)
		}
		s.batches.Add(1)
		s.batchSizes.Observe(int64(len(chunk)))
		if err := s.commit(chunk); err != nil {
			s.flushErrors.Add(1)
			if firstErr == nil {
				firstErr = err
			}
			// The records are dirty again and will be re-appended by the
			// retry flush; drop the failed attempt so a long store
			// outage cannot grow the log without bound.
			if s.cfg.WAL != nil {
				s.cfg.WAL.AbortBatch(walSeq)
			}
			continue
		}
		flushed += len(chunk)
	}
	s.records.Add(uint64(flushed))
	s.flushLatency.Observe(time.Since(start))
	if firstErr == nil && s.cfg.WAL != nil && s.cfg.WALCheckpoint {
		s.cfg.WAL.Truncate()
	}
	return flushed, firstErr
}

// flushBatch returns the leading batch of a flush's records: at most
// maxItems records and maxBytes of values, but never empty, so a record
// larger than maxBytes is a batch of its own. A bound <= 0 is off. The
// batch aliases recs.
func flushBatch(recs []BatchRecord, maxItems int, maxBytes int64) []BatchRecord {
	var size int64
	for i, r := range recs {
		size += int64(len(r.Value))
		if i > 0 && (maxItems > 0 && i >= maxItems || maxBytes > 0 && size > maxBytes) {
			return recs[:i]
		}
	}
	return recs
}

// save writes one batch to the store: the only way a slate reaches
// it. Saves are counted when issued, not when the store returns —
// observers (stats endpoints, experiments) read the count while a slow
// save is in flight — and a failed batch's are taken back out, so
// retries do not inflate StoreSaves past actual store writes, and
// counted in SaveErrors.
func (s *Sharded) save(recs []BatchRecord) error {
	s.saves.Add(uint64(len(recs)))
	err := s.cfg.Store.SaveBatch(recs)
	if err != nil {
		s.saves.Add(^uint64(len(recs) - 1))
		s.refused.Add(uint64(len(recs)))
	}
	return err
}

// commit saves a batch taken outside the shard locks (a flush chunk, a
// write-through update) and settles it, then saves what the settle took
// again, until nothing is left. It returns the batch's own error; a
// later save's failure leaves its records dirty and counted like any.
func (s *Sharded) commit(recs []BatchRecord) error {
	err := s.save(recs)
	for again := s.settleChunk(recs, err != nil); len(again) > 0; {
		again = s.settleChunk(again, s.save(again) != nil)
	}
	return err
}

// settleChunk settles the entries of a batch whose store write has
// returned (see settleLocked), and trims back a shard the un-evictable
// entries let grow past its capacity. Under WriteThrough it takes
// again, for the caller to save next, each saved entry a write-through
// update left dirty while the save was in flight (put could not take
// it): they are returned at the front of chunk.
func (s *Sharded) settleChunk(chunk []BatchRecord, failed bool) []BatchRecord {
	again := chunk[:0]
	for _, r := range chunk {
		sh := s.shardFor(r.K)
		sh.mu.Lock()
		sh.settleLocked(r.e, failed)
		if !failed && s.cfg.Policy == WriteThrough && r.e.isDirty() && r.e.pins == 0 && sh.items[r.K] == r.e {
			if rec, err := s.takeLocked(sh, r.e); err == nil {
				again = append(again, rec)
			}
		}
		s.trimLocked(sh)
		sh.mu.Unlock()
	}
	return again
}

// settleLocked ends a save's hold on e once the save has returned:
// the entry is evictable again, and dirty again if the save failed, so
// a later flush, eviction or write-through save retries it. An entry
// deleted or crashed away in the meantime is gone either way. Caller
// holds sh.mu.
func (sh *shard) settleLocked(e *entry, failed bool) {
	e.flushing = false
	if failed && sh.items[e.key] == e {
		sh.markDirtyLocked(e)
	}
}

// Crash drops the entire cache without flushing, counting the dirty
// slates whose updates are lost — the failure mode Section 4.3
// accepts: "whatever changes that it has made to the slates and that
// have not yet been flushed to the key-value store are lost." A group
// commit under way is waited out first: every slate it carries is in
// the store when Crash returns, before a failover can reroute the
// machine's keys to owners that read them from there. Until Revive the
// cache stays dead — it caches nothing and drops every Put, counting it
// in DirtyLost — so an update the dead machine was still running cannot
// write its history over what the keys' new owners have stored since.
func (s *Sharded) Crash() (dirtyLost int) {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for _, sh := range s.shards {
		sh.mu.Lock()
		for _, e := range sh.items {
			if e.isDirty() {
				dirtyLost++
				sh.stats.DirtyLost++
				e.unlinkDirty()
			}
		}
		s.removals.Add(uint64(len(sh.items)))
		sh.items = make(map[Key]*entry)
		sh.clearLists()
		sh.stats.Poisoned = 0
		sh.dead = true
		sh.mu.Unlock()
	}
	return dirtyLost
}

// Revive ends a Crash: the cache takes slates again.
func (s *Sharded) Revive() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.dead = false
		sh.mu.Unlock()
	}
}

// Len reports the number of cached slates.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Stats returns a snapshot of the cache counters: the per-shard
// counters summed, plus the store saves.
func (s *Sharded) Stats() CacheStats {
	var total CacheStats
	for _, sh := range s.shards {
		sh.mu.Lock()
		st := sh.stats
		st.Size = len(sh.items)
		sh.mu.Unlock()
		total.Add(st)
	}
	total.StoreSaves += s.saves.Load()
	total.SaveErrors += s.refused.Load()
	return total
}

// Keys returns the cached slate keys (unordered); the HTTP status
// endpoint and tests use it.
func (s *Sharded) Keys() []Key {
	var out []Key
	for _, sh := range s.shards {
		sh.mu.Lock()
		for k := range sh.items {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	return out
}

// CacheRow is one cached slate as Scan hands it out: its encoding
// (Raw), or — Raw nil — what a FieldReader read off the decoded object
// (Vals, valid only during the callback; Encodes, the reader's verdict)
// and Size, the length of the entry's last materialized encoding. Route
// is the entry's memo of ShardedConfig.RouteHash (0 without one).
type CacheRow struct {
	Key     string
	Raw     []byte
	Vals    []Scalar
	Encodes bool
	Size    int
	Route   uint64
}

// Scan is the query path's read of the cache: fn is called once per
// cached slate of the updater, shard by shard, in no order, and never
// under a shard lock — so the caller's ring lookups, codec.Decode,
// predicates and aggregation cost the shard's writers nothing. Under
// the lock Scan only copies out: the key, the route memo and, for a
// decoded slate no updater has pinned, the n scalars read reads off the
// object (a few field loads: a FieldReader neither encodes nor
// allocates); a byte entry, or a pinned one whose encoding is current,
// hands out that encoding, which is immutable. Nothing is encoded or
// decoded there, with one exception: a nil read (the codec declined the
// query's fields) asks for encodings only, and then a stale unpinned
// entry is encoded under the lock as Peek does — its object cannot be
// read once the lock is gone, and the encoding is kept for the next
// flush.
//
// The route memo is the entry's RouteHash, computed under the lock the
// first time a Scan reads the entry and kept for the entry's life: it is
// a hash, not an owner, so the caller still resolves it against the
// ring as it stands, and a ring change shows on the very next row.
//
// A pinned entry whose object is newer than its encoding is mid-update:
// the object cannot be read, and the encoding may be older than what an
// earlier Scan showed. Scan comes back for it once the shard is done
// (an update takes microseconds); only if its updater still holds it
// pinWait later does it get Peek's answer — the last encoding, or "no
// slate" for an entry that never had one.
func (s *Sharded) Scan(updater string, read FieldReader, n int, fn func(CacheRow)) {
	var (
		rows     []CacheRow // one shard's copy-out, reused for the next
		vals     []Scalar
		busy     []Key
		deadline time.Time
	)
	for _, sh := range s.shards {
		// take copies e out under sh.mu; false means no slate to show.
		take := func(k Key, e *entry) (CacheRow, bool) {
			if e.route == 0 && s.cfg.RouteHash != nil {
				e.route = s.cfg.RouteHash(k.Updater, k.Key)
			}
			if read != nil && e.decoded != nil && e.pins == 0 {
				off := len(vals)
				vals = slices.Grow(vals, n)[:off+n]
				return CacheRow{Key: k.Key, Vals: vals[off:], Encodes: read(e.decoded, vals[off:]), Size: len(e.value), Route: e.route}, true
			}
			raw := s.snapshotLocked(sh, e)
			return CacheRow{Key: k.Key, Raw: raw, Route: e.route}, raw != nil
		}
		rows, vals, busy = rows[:0], vals[:0], busy[:0]
		sh.mu.Lock()
		for k, e := range sh.items {
			if k.Updater != updater {
				continue
			}
			if read != nil && e.pins > 0 && e.stale {
				busy = append(busy, k)
			} else if r, ok := take(k, e); ok {
				rows = append(rows, r)
			}
		}
		sh.mu.Unlock()
		for _, r := range rows {
			fn(r)
		}
		if len(busy) > 0 && deadline.IsZero() {
			deadline = time.Now().Add(pinWait)
		}
		for _, k := range busy {
			for pinned := true; pinned; {
				sh.mu.Lock()
				e := sh.items[k] // nil: evicted since, so the store has it
				pinned = e != nil && e.pins > 0 && time.Now().Before(deadline)
				var r CacheRow
				ok := false
				if e != nil && !pinned {
					r, ok = take(k, e)
				}
				sh.mu.Unlock()
				if ok {
					fn(r)
				} else if pinned {
					time.Sleep(pinWait / 100)
				}
			}
		}
	}
}

// pinWait bounds how long one Scan waits, in all, for updaters to
// finish the updates they are in the middle of.
const pinWait = 10 * time.Millisecond

// FlushStats snapshots the group-commit counters.
func (s *Sharded) FlushStats() FlushStats {
	return FlushStats{
		Flushes: s.flushes.Load(),
		Batches: s.batches.Load(),
		Records: s.records.Load(),
		Errors:  s.flushErrors.Load(),
	}
}

// FlushLatency is the histogram of FlushDirty wall-clock durations.
func (s *Sharded) FlushLatency() *metrics.Histogram[time.Duration] { return s.flushLatency }

// BatchSizes is the histogram of group-commit batch sizes (records per
// multi-put).
func (s *Sharded) BatchSizes() *metrics.Histogram[int64] { return s.batchSizes }
