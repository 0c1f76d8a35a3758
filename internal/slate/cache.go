package slate

// FlushPolicy selects when dirty slates are written to the durable
// key-value store. Section 4.2: "The application can set the flushing
// interval, ranging from 'immediate write-through' to 'only when
// evicted from cache.'"
type FlushPolicy int

const (
	// WriteThrough saves every slate update to the store immediately.
	WriteThrough FlushPolicy = iota
	// Interval saves dirty slates periodically (the engine drives the
	// period) and on eviction.
	Interval
	// OnEvict saves dirty slates only when the cache evicts them.
	OnEvict
)

// String names the policy.
func (p FlushPolicy) String() string {
	switch p {
	case WriteThrough:
		return "write-through"
	case Interval:
		return "interval"
	case OnEvict:
		return "on-evict"
	default:
		return "unknown"
	}
}

// Store is the durable backing for slates. The production adapter
// wraps the kvstore cluster; tests use in-memory fakes.
type Store interface {
	// Load fetches the stored slate for k; found=false means the slate
	// has never been written or has expired. The value may be the
	// store's own memory: the caller must not write to it, and copies
	// what it keeps.
	Load(k Key) (value []byte, found bool, err error)
	// SaveBatch persists every record, each with its updater's TTL, as
	// one multi-put: a group-commit flush batch, or the single record of
	// a write-through or eviction save. A failure may leave some records
	// written. It must not keep a record's Value, or anything that
	// aliases it, after it returns: the cache rewrites a saved slate's
	// encoding in place at its next encode.
	SaveBatch(recs []BatchRecord) error
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits       uint64 `metric:"muppet_slate_cache_hits_total" help:"Slate-cache hits."`
	Misses     uint64 `metric:"muppet_slate_cache_misses_total" help:"Slate-cache misses."`
	StoreLoads uint64 `metric:"muppet_slate_store_loads_total" help:"Slate loads from the durable store."`
	StoreSaves uint64 `metric:"muppet_slate_store_saves_total" help:"Slate writes to the durable store."`
	// Evictions counts slates evicted under capacity pressure; a dirty
	// one goes only once its save has succeeded.
	Evictions uint64 `metric:"muppet_slate_cache_evictions_total" help:"Slates evicted under capacity pressure."`
	// DirtyLost counts slate updates a machine crash lost: the dirty
	// slates the crash dropped, and the writes the crashed cache refused
	// until Revive. Nothing else drops a dirty slate.
	DirtyLost uint64 `metric:"muppet_slate_dirty_lost_total" help:"Slate updates lost to crashes: dirty slates dropped and writes refused."`
	// SaveErrors counts the slate records the store refused, on every
	// path a save takes (a flush batch, a write-through update, a dirty
	// eviction). Each stays dirty and resident for a later save to retry.
	SaveErrors uint64 `metric:"muppet_slate_save_errors_total" help:"Slate records the store refused to save; each stays dirty for a retry."`
	// DecodeErrors counts typed reads (GetDecoded) whose codec failed
	// to decode the stored bytes — the engine falls back to a fresh
	// zero-value slate, so a non-zero count is the signal that stored
	// state was unreadable (and will be overwritten).
	DecodeErrors uint64 `metric:"muppet_slate_decode_errors_total" help:"Slate rows that failed to decode."`
	// EncodeErrors counts failed attempts to materialize a decoded
	// slate's at-rest encoding (flush, eviction, reads), retries
	// included. The entry stays dirty and resident — never silently
	// dropped — but cannot reach the store until an encode succeeds.
	EncodeErrors uint64 `metric:"muppet_slate_encode_errors_total" help:"Slate values that failed to encode."`
	Size         int    `metric:"muppet_slate_cache_size" help:"Slates resident in cache."`
	// Poisoned is how many resident slates are wedged that way right
	// now: their latest encode failed. It falls when an encode succeeds
	// or the slate is deleted, overwritten with bytes, or crashed away.
	Poisoned int `metric:"muppet_slate_poisoned_slates" help:"Resident slates whose latest encode failed."`
}

// Add accumulates s into t (shards into a store, stores into an
// engine-wide view).
func (t *CacheStats) Add(s CacheStats) {
	t.Hits += s.Hits
	t.Misses += s.Misses
	t.StoreLoads += s.StoreLoads
	t.StoreSaves += s.StoreSaves
	t.Evictions += s.Evictions
	t.DirtyLost += s.DirtyLost
	t.SaveErrors += s.SaveErrors
	t.DecodeErrors += s.DecodeErrors
	t.EncodeErrors += s.EncodeErrors
	t.Size += s.Size
	t.Poisoned += s.Poisoned
}

type entry struct {
	key   Key
	value []byte
	// room is the buffer the next encode may rewrite in place: at first
	// the room the entry's block keeps after the key, then a buffer the
	// cache made for an encoding too large for it. Handing the value's
	// bytes to someone who may keep them ends it (nil); the package doc
	// lists what does.
	room []byte
	// prev and next link the entry into its shard's LRU list (see
	// shard.lru); dprev and dnext, while it is dirty, into its dirty
	// list (shard.dirty).
	prev, next, dprev, dnext *entry

	// Typed-slate state. decoded is the live object of a typed update
	// function's slate (nil for classic byte slates); codec encodes it
	// back to bytes. stale marks value as older than decoded (the next
	// flush or external read re-encodes). pins counts updaters holding
	// the decoded object outside the cache lock: while pinned the
	// object may be mutated in place, so flush, eviction, and reads
	// must not encode it — they skip the entry (it stays dirty) or
	// serve the last materialized encoding instead.
	decoded any
	codec   Codec
	pins    int32

	// flushing marks an entry whose value a save is carrying to the
	// store right now (a group-commit batch, a write-through or
	// eviction save): no longer dirty, not yet durable. One save at a
	// time: takeLocked leaves a flushing entry dirty. Eviction skips it
	// exactly as it skips a pinned entry — dropping it would let a
	// reload read the older store row — until the save has returned.
	flushing bool
	stale    bool
	// poisoned marks a stale entry whose latest encode failed (counted
	// in CacheStats.Poisoned).
	poisoned bool

	// route memoizes ShardedConfig.RouteHash for the entry's key; 0 is
	// not yet computed (Scan fills it), and a key that hashes to 0 is
	// merely hashed again on every scan.
	route uint64
}
