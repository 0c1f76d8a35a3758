package slate

import (
	"container/list"
	"sync"
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

// CacheConfig tunes a slate cache.
type CacheConfig struct {
	// Capacity is the maximum number of cached slates. Muppet 1.0 gave
	// each worker its own small cache; Muppet 2.0 keeps one central
	// cache per machine (Section 4.5) — experiment E5 measures the
	// difference.
	Capacity int
	// Policy selects the flush behavior.
	Policy FlushPolicy
	// Store is the durable backing; nil disables persistence (slates
	// live only in memory, and evictions discard).
	Store Store
	// TTLFor returns the slate TTL for an updater; nil means forever.
	// The paper makes TTL configurable per update function because
	// "different update functions often track different kinds of data,
	// thus requiring different shelf lives" (Section 4.2).
	TTLFor func(updater string) time.Duration
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

// Cache is an LRU slate cache with dirty tracking. It is safe for
// concurrent use.
type Cache struct {
	mu    sync.Mutex
	cfg   CacheConfig
	items map[Key]*entry
	lru   *list.List // front = most recently used
	stats CacheStats
}

// NewCache returns a cache with the given configuration. Capacity
// defaults to 10000 slates.
func NewCache(cfg CacheConfig) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 10_000
	}
	return &Cache{
		cfg:   cfg,
		items: make(map[Key]*entry),
		lru:   list.New(),
	}
}

func (c *Cache) ttl(k Key) time.Duration {
	if c.cfg.TTLFor == nil {
		return 0
	}
	return c.cfg.TTLFor(k.Updater)
}

// Get returns the slate for k, loading it from the durable store on a
// miss. A nil slate with nil error means the slate does not exist yet
// (or expired): per Section 4.2 the updater then initializes a fresh
// one.
func (c *Cache) Get(k Key) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.stats.Hits++
		c.lru.MoveToFront(e.elem)
		return e.snapshotLocked(&c.stats), nil
	}
	c.stats.Misses++
	if c.cfg.Store == nil {
		return nil, nil
	}
	c.stats.StoreLoads++
	v, found, err := c.cfg.Store.Load(k)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	c.insertLocked(k, v, false)
	return v, nil
}

// GetDecoded returns the decoded slate object for k, decoding the
// cached (or store-loaded) bytes through codec at most once per cache
// fill. The returned object is pinned until the matching PutDecoded:
// the caller may mutate it in place, and flushes skip the entry in the
// meantime. A nil object with nil error means the slate does not exist
// yet; the caller initializes a fresh one (Codec.New) and hands it
// back through PutDecoded, which inserts it.
func (c *Cache) GetDecoded(k Key, codec Codec) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.stats.Hits++
		c.lru.MoveToFront(e.elem)
		if e.decoded == nil {
			v, err := codec.Decode(e.value)
			if err != nil {
				c.stats.DecodeErrors++
				return nil, err
			}
			e.decoded = v
			e.codec = codec
		}
		e.pins++
		return e.decoded, nil
	}
	c.stats.Misses++
	if c.cfg.Store == nil {
		return nil, nil
	}
	c.stats.StoreLoads++
	raw, found, err := c.cfg.Store.Load(k)
	if err != nil {
		return nil, err
	}
	if !found {
		return nil, nil
	}
	v, err := codec.Decode(raw)
	if err != nil {
		c.stats.DecodeErrors++
		return nil, err
	}
	e := c.insertLocked(k, raw, false)
	e.decoded = v
	e.codec = codec
	e.pins++
	return v, nil
}

// PutDecoded installs the decoded slate object for k — the typed
// equivalent of Put: the object becomes the slate's source of truth,
// the entry is marked dirty, and the encode is deferred to the next
// flush or external read. It releases the pin taken by GetDecoded.
// Under WriteThrough the object is encoded and persisted before
// PutDecoded returns, exactly like Put.
func (c *Cache) PutDecoded(k Key, v any, codec Codec) error {
	c.mu.Lock()
	e, ok := c.items[k]
	if ok {
		e.setDecodedLocked(v, codec)
		e.dirty = true
		c.lru.MoveToFront(e.elem)
	} else {
		e = c.insertLocked(k, nil, true)
		e.setDecodedLocked(v, codec)
	}
	if c.cfg.Policy == WriteThrough && c.cfg.Store != nil {
		if err := e.encodeLocked(); err != nil {
			c.stats.EncodeErrors++
			c.mu.Unlock()
			return err
		}
		e.dirty = false
		c.stats.StoreSaves++
		store, value, ttl := c.cfg.Store, e.value, c.ttl(k)
		c.mu.Unlock()
		return store.Save(k, value, ttl)
	}
	c.mu.Unlock()
	return nil
}

// Peek returns the cached slate without promoting it or falling back
// to the store; the HTTP slate-read path uses the cache "rather than
// the durable key-value store to ensure an up-to-date reply"
// (Section 4.4) but must not disturb LRU order for read-only probes.
func (c *Cache) Peek(k Key) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		return e.snapshotLocked(&c.stats), true
	}
	return nil, false
}

// Put replaces the slate for k (the updater's replaceSlate call). With
// WriteThrough the new value is persisted before Put returns.
func (c *Cache) Put(k Key, value []byte) error {
	c.mu.Lock()
	if e, ok := c.items[k]; ok {
		e.setBytesLocked(value)
		e.dirty = true
		c.lru.MoveToFront(e.elem)
	} else {
		c.insertLocked(k, value, true)
	}
	var saveErr error
	if c.cfg.Policy == WriteThrough && c.cfg.Store != nil {
		c.items[k].dirty = false
		c.stats.StoreSaves++
		store := c.cfg.Store
		ttl := c.ttl(k)
		c.mu.Unlock()
		saveErr = store.Save(k, value, ttl)
		return saveErr
	}
	c.mu.Unlock()
	return nil
}

// Delete removes the slate from the cache without persisting it.
func (c *Cache) Delete(k Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[k]; ok {
		c.lru.Remove(e.elem)
		delete(c.items, k)
	}
}

// insertLocked adds a new entry, evicting as needed.
func (c *Cache) insertLocked(k Key, value []byte, dirty bool) *entry {
	e := &entry{key: k, value: value, dirty: dirty}
	e.elem = c.lru.PushFront(e)
	c.items[k] = e
	for len(c.items) > c.cfg.Capacity {
		if !c.evictLocked() {
			break
		}
	}
	return e
}

// evictLocked evicts the least recently used unpinned entry; a pinned
// entry's decoded object is in an updater's hands and cannot be
// encoded for persistence, so the walk skips it (capacity may be
// exceeded for the pin's microseconds-long lifetime). It reports
// whether a victim was found.
func (c *Cache) evictLocked() bool {
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry)
		if e.pins > 0 {
			continue
		}
		if e.dirty && c.cfg.Store != nil {
			// Interval and OnEvict persist on eviction; WriteThrough
			// entries are already clean. A typed entry encodes here;
			// if the encode fails the slate cannot be persisted, so
			// keep it resident rather than drop dirty data.
			if err := e.encodeLocked(); err != nil {
				c.stats.EncodeErrors++
				continue
			}
			c.stats.StoreSaves++
			c.cfg.Store.Save(e.key, e.value, c.ttl(e.key))
		}
		c.lru.Remove(el)
		delete(c.items, e.key)
		c.stats.Evictions++
		return true
	}
	return false
}

// FlushDirty persists every dirty slate (the periodic flush of the
// Interval policy, driven by the engine's background I/O thread).
// It returns the number of slates written.
func (c *Cache) FlushDirty() (int, error) {
	c.mu.Lock()
	type pending struct {
		k   Key
		v   []byte
		ttl time.Duration
	}
	var batch []pending
	for _, e := range c.items {
		if !e.dirty {
			continue
		}
		// A pinned entry's decoded object is being mutated by an
		// updater right now; leave it dirty for the next flush. A
		// stale entry encodes here — once per flush, not per event.
		if e.pins > 0 {
			continue
		}
		if e.encodeLocked() != nil {
			c.stats.EncodeErrors++
			continue
		}
		e.dirty = false
		batch = append(batch, pending{e.key, e.value, c.ttl(e.key)})
	}
	store := c.cfg.Store
	c.stats.StoreSaves += uint64(len(batch))
	c.mu.Unlock()
	if store == nil {
		return 0, nil
	}
	var firstErr error
	for _, p := range batch {
		if err := store.Save(p.k, p.v, p.ttl); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return len(batch), firstErr
}

// Crash drops the entire cache without flushing, counting the dirty
// slates whose updates are lost — the failure mode Section 4.3
// accepts: "whatever changes that it has made to the slates and that
// have not yet been flushed to the key-value store are lost."
func (c *Cache) Crash() (dirtyLost int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.items {
		if e.dirty {
			dirtyLost++
		}
	}
	c.stats.DirtyLost += uint64(dirtyLost)
	c.items = make(map[Key]*entry)
	c.lru = list.New()
	return dirtyLost
}

// Len reports the number of cached slates.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// DirtyCount reports the number of dirty cached slates.
func (c *Cache) DirtyCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.items {
		if e.dirty {
			n++
		}
	}
	return n
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Size = len(c.items)
	return s
}

// Keys returns the cached slate keys (unordered); the HTTP status
// endpoint and tests use it.
func (c *Cache) Keys() []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Key, 0, len(c.items))
	for k := range c.items {
		out = append(out, k)
	}
	return out
}
