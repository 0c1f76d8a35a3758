package slate

import (
	"container/list"
	"time"
)

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
	// has never been written or has expired.
	Load(k Key) (value []byte, found bool, err error)
	// Save persists the slate with the updater's TTL.
	Save(k Key, value []byte, ttl time.Duration) error
}

// CacheStats is a snapshot of cache effectiveness counters.
type CacheStats struct {
	Hits       uint64
	Misses     uint64
	StoreLoads uint64 // misses that went to the durable store
	StoreSaves uint64
	Evictions  uint64
	DirtyLost  uint64 // dirty slates discarded by Crash
	// DecodeErrors counts typed reads (GetDecoded) whose codec failed
	// to decode the stored bytes — the engine falls back to a fresh
	// zero-value slate, so a non-zero count is the signal that stored
	// state was unreadable (and will be overwritten).
	DecodeErrors uint64
	// EncodeErrors counts failed attempts to materialize a decoded
	// slate's at-rest encoding (flush, eviction, reads). The entry
	// stays dirty and resident — never silently dropped — but it also
	// cannot reach the store until the encode succeeds, so a growing
	// count means slates are wedged in memory.
	EncodeErrors uint64
	Size         int
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
	t.DecodeErrors += s.DecodeErrors
	t.EncodeErrors += s.EncodeErrors
	t.Size += s.Size
}

type entry struct {
	key   Key
	value []byte
	dirty bool
	elem  *list.Element

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
	stale   bool
	pins    int

	// flushing marks an entry whose value a group-commit batch is
	// carrying to the store right now (Sharded.FlushDirty): no longer
	// dirty, not yet durable. Eviction skips it exactly as it skips a
	// pinned entry — dropping it would let a reload read the older store
	// row, and evicting it re-dirtied would let the batch overwrite the
	// eviction's newer save — until its batch's write returns.
	flushing bool
}
