package slate

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"muppet/internal/kvstore"
	"muppet/internal/wal"
)

func TestShardedBasicGetPutPeek(t *testing.T) {
	s := NewSharded(ShardedConfig{Shards: 8, Capacity: 100})
	if v, err := s.Get(k("U", "a")); err != nil || v != nil {
		t.Fatalf("empty get = %v, %v", v, err)
	}
	s.Put(k("U", "a"), []byte("1"))
	if v, _ := s.Get(k("U", "a")); string(v) != "1" {
		t.Fatalf("get = %q, want 1", v)
	}
	if v, ok := s.Peek(k("U", "a")); !ok || string(v) != "1" {
		t.Fatalf("peek = %q, %v", v, ok)
	}
	if _, ok := s.Peek(k("U", "b")); ok {
		t.Fatal("peek of absent key reported present")
	}
	if got := s.Len(); got != 1 {
		t.Fatalf("len = %d, want 1", got)
	}
	if got := s.DirtyCount(); got != 1 {
		t.Fatalf("dirty = %d, want 1", got)
	}
	s.Delete(k("U", "a"))
	if got, dirty := s.Len(), s.DirtyCount(); got != 0 || dirty != 0 {
		t.Fatalf("after delete len=%d dirty=%d", got, dirty)
	}
}

func TestShardedLoadsThroughStore(t *testing.T) {
	fs := newFakeStore()
	fs.data[k("U", "cold")] = []byte("42")
	s := NewSharded(ShardedConfig{Shards: 4, Capacity: 10, Store: fs})
	if v, err := s.Get(k("U", "cold")); err != nil || string(v) != "42" {
		t.Fatalf("load-through = %q, %v", v, err)
	}
	// Now cached: a second get must not hit the store again.
	s.Get(k("U", "cold"))
	if fs.loads != 1 {
		t.Fatalf("store loads = %d, want 1", fs.loads)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.StoreLoads != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestShardedWriteThrough(t *testing.T) {
	fs := newFakeStore()
	s := NewSharded(ShardedConfig{Shards: 4, Capacity: 10, Policy: WriteThrough, Store: fs})
	s.Put(k("U", "a"), []byte("1"))
	if fs.saves != 1 {
		t.Fatalf("saves = %d, want immediate write-through", fs.saves)
	}
	if got := s.DirtyCount(); got != 0 {
		t.Fatalf("dirty = %d after write-through", got)
	}
}

func TestShardedEvictionPersistsDirty(t *testing.T) {
	fs := newFakeStore()
	s := NewSharded(ShardedConfig{Shards: 2, Capacity: 2, Policy: OnEvict, Store: fs})
	for i := 0; i < 10; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte("v"))
	}
	if s.Len() > 2 {
		t.Fatalf("len = %d, want <= capacity 2", s.Len())
	}
	st := s.Stats()
	if st.Evictions == 0 || fs.saves == 0 {
		t.Fatalf("evictions=%d saves=%d, want both > 0", st.Evictions, fs.saves)
	}
}

func TestShardedDistribution(t *testing.T) {
	// 10k distinct keys over 16 shards: FNV striping should land
	// every shard within a loose factor of the 625 mean.
	s := NewSharded(ShardedConfig{Shards: 16, Capacity: 100_000})
	const n = 10_000
	for i := 0; i < n; i++ {
		s.Put(k("U", fmt.Sprintf("user-%d", i)), []byte("v"))
	}
	sizes := s.ShardSizes()
	if len(sizes) != 16 {
		t.Fatalf("shards = %d, want 16", len(sizes))
	}
	mean := n / 16
	for i, sz := range sizes {
		if sz < mean/2 || sz > mean*2 {
			t.Fatalf("shard %d holds %d slates, want within [%d, %d]; distribution %v",
				i, sz, mean/2, mean*2, sizes)
		}
	}
}

func TestShardedGroupCommitBatches(t *testing.T) {
	fs := newFakeStore()
	log := wal.NewSlateBatchLog()
	s := NewSharded(ShardedConfig{
		Shards: 8, Capacity: 10_000, Policy: Interval,
		Store: fs, WAL: log, MaxFlushBatch: 100,
	})
	for i := 0; i < 250; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte("v"))
	}
	n, err := s.FlushDirty()
	if err != nil || n != 250 {
		t.Fatalf("flush = %d, %v; want 250, nil", n, err)
	}
	// 250 records at <=100 per batch: 3 multi-puts, not 250 saves.
	if fs.batches != 3 {
		t.Fatalf("multi-put batches = %d (%v), want 3", fs.batches, fs.batchSizes)
	}
	batches, records, _ := log.Stats()
	if batches != 3 || records != 250 {
		t.Fatalf("wal batches=%d records=%d, want 3/250", batches, records)
	}
	fstats := s.FlushStats()
	if fstats.Flushes != 1 || fstats.Batches != 3 || fstats.Records != 250 || fstats.Errors != 0 {
		t.Fatalf("flush stats = %+v", fstats)
	}
	if got := s.BatchSizes().Snapshot().Count; got != 3 {
		t.Fatalf("batch size samples = %d, want 3", got)
	}
	if got := s.FlushLatency().Snapshot().Count; got != 1 {
		t.Fatalf("flush latency samples = %d, want 1", got)
	}
	if s.DirtyCount() != 0 {
		t.Fatalf("dirty = %d after flush", s.DirtyCount())
	}
	// A second flush with nothing dirty is a no-op.
	if n, _ := s.FlushDirty(); n != 0 {
		t.Fatalf("idle flush wrote %d", n)
	}
}

func TestShardedFlushFailureRetries(t *testing.T) {
	fs := newFakeStore()
	fs.failNext = 1
	log := wal.NewSlateBatchLog()
	s := NewSharded(ShardedConfig{Shards: 4, Capacity: 100, Policy: Interval, Store: fs, WAL: log, MaxFlushBatch: 100})
	for i := 0; i < 5; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte("v"))
	}
	if _, err := s.FlushDirty(); err == nil {
		t.Fatal("want error from failed batch")
	}
	// The failed batch was re-marked dirty; the next flush lands it.
	if got := s.DirtyCount(); got != 5 {
		t.Fatalf("dirty after failed flush = %d, want 5", got)
	}
	n, err := s.FlushDirty()
	if err != nil || n != 5 {
		t.Fatalf("retry flush = %d, %v", n, err)
	}
	if len(fs.data) != 5 {
		t.Fatalf("store rows = %d, want 5", len(fs.data))
	}
	if fstats := s.FlushStats(); fstats.Errors != 1 {
		t.Fatalf("flush errors = %d, want 1", fstats.Errors)
	}
	// The failed attempt was aborted from the WAL: only the successful
	// retry's batch is retained, so a long store outage cannot grow the
	// log without bound.
	if _, records, retained := log.Stats(); retained != 1 || records != 5 {
		t.Fatalf("wal retained=%d records=%d, want 1/5", retained, records)
	}
	// And the failed attempt was backed out of the saves count: 5
	// actual store writes, not 10.
	if saves := s.Stats().StoreSaves; saves != 5 {
		t.Fatalf("store saves = %d, want 5 (retry must not double-count)", saves)
	}
}

func TestShardedCapacityExact(t *testing.T) {
	// Capacity that does not divide the shard count must still bound
	// the total exactly (remainder spread over the first shards).
	s := NewSharded(ShardedConfig{Shards: 16, Capacity: 20})
	for i := 0; i < 500; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte("v"))
	}
	total := 0
	for _, sz := range s.ShardSizes() {
		total += sz
	}
	if total > 20 {
		t.Fatalf("resident slates = %d, want <= configured capacity 20", total)
	}
}

// TestShardedConcurrentRace drives readers, writers, and the flusher
// concurrently; run under -race it proves the striped locking and the
// group-commit drain do not race.
func TestShardedConcurrentRace(t *testing.T) {
	fs := newFakeStore()
	s := NewSharded(ShardedConfig{
		Shards: 8, Capacity: 512, Policy: Interval,
		Store: fs, WAL: wal.NewSlateBatchLog(), WALCheckpoint: true, MaxFlushBatch: 64,
	})
	const workers = 8
	const opsPerWorker = 2_000
	var workerWG sync.WaitGroup
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			for i := 0; i < opsPerWorker; i++ {
				key := k("U", fmt.Sprintf("key%d", (w*opsPerWorker+i)%300))
				switch i % 4 {
				case 0, 1:
					s.Put(key, []byte(fmt.Sprintf("%d", i)))
				case 2:
					s.Get(key)
				case 3:
					s.Peek(key)
				}
			}
		}(w)
	}
	// Background flusher, as the engines run it, racing the workers.
	stop := make(chan struct{})
	var flusherWG sync.WaitGroup
	flusherWG.Add(1)
	go func() {
		defer flusherWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.FlushDirty()
			}
		}
	}()
	workerWG.Wait()
	close(stop)
	flusherWG.Wait()
	// Final flush drains everything that is still dirty.
	if _, err := s.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if got := s.DirtyCount(); got != 0 {
		t.Fatalf("dirty = %d after final flush", got)
	}
	// Every cached slate must match what a reader would see.
	for _, key := range s.Keys() {
		if _, ok := s.Peek(key); !ok {
			t.Fatalf("key %v vanished", key)
		}
	}
}

// TestCrashReplayRestoresFlushedSlates proves the WAL batch records
// are a faithful copy of everything the group-commit pipeline wrote:
// replaying the log into an empty store reproduces the flushed state
// even after the original store is wiped.
func TestCrashReplayRestoresFlushedSlates(t *testing.T) {
	fs := newFakeStore()
	log := wal.NewSlateBatchLog()
	s := NewSharded(ShardedConfig{
		Shards: 8, Capacity: 10_000, Policy: Interval,
		Store: fs, WAL: log, MaxFlushBatch: 32,
	})
	// Two flush rounds, with overwrites across rounds.
	for i := 0; i < 100; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte(fmt.Sprintf("v1-%d", i)))
	}
	if _, err := s.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte(fmt.Sprintf("v2-%d", i)))
	}
	if _, err := s.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	// Disaster: the durable store loses everything, and the cache
	// crashes too.
	recovered := newFakeStore()
	s.Crash()
	// Replay the WAL batches, oldest first, into the fresh store.
	applied, err := log.Replay(func(r wal.SlateRecord) error {
		return recovered.SaveBatch([]BatchRecord{{K: Key{Updater: r.Updater, Key: r.Key}, Value: r.Value, TTL: r.TTL}})
	})
	if err != nil {
		t.Fatal(err)
	}
	if applied != 150 {
		t.Fatalf("replayed %d records, want 150", applied)
	}
	// The recovered store holds the newest flushed value of every key.
	for i := 0; i < 100; i++ {
		want := fmt.Sprintf("v1-%d", i)
		if i < 50 {
			want = fmt.Sprintf("v2-%d", i)
		}
		v, ok, _ := recovered.Load(k("U", fmt.Sprintf("key%d", i)))
		if !ok || string(v) != want {
			t.Fatalf("key%d = %q, %v; want %q", i, v, ok, want)
		}
	}
}

// TestShardedAgainstKVCluster runs the group-commit path against the
// real kvstore cluster end to end: flush via multi-put, then read every
// slate back through the adapter.
func TestShardedAgainstKVCluster(t *testing.T) {
	clu := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 2})
	adapter := &KVStore{Cluster: clu, Level: kvstore.Quorum}
	s := NewSharded(ShardedConfig{Shards: 8, Capacity: 1_000, Policy: Interval, Store: adapter, MaxFlushBatch: 16})
	for i := 0; i < 64; i++ {
		s.Put(k("U1", fmt.Sprintf("row%d", i)), []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	n, err := s.FlushDirty()
	if err != nil || n != 64 {
		t.Fatalf("flush = %d, %v", n, err)
	}
	// Wipe the cache; every read must come back from the cluster.
	s.Crash()
	for i := 0; i < 64; i++ {
		v, err := s.Get(k("U1", fmt.Sprintf("row%d", i)))
		if err != nil || string(v) != fmt.Sprintf(`{"n":%d}`, i) {
			t.Fatalf("row%d = %q, %v", i, v, err)
		}
	}
}

func TestShardedCapacityClamp(t *testing.T) {
	// More shards than capacity must not inflate the cache.
	s := NewSharded(ShardedConfig{Shards: 16, Capacity: 2})
	for i := 0; i < 10; i++ {
		s.Put(k("U", fmt.Sprintf("key%d", i)), []byte("v"))
	}
	if got := s.Len(); got > 2 {
		t.Fatalf("len = %d, want <= 2", got)
	}
}

// gatedBatchStore is a fakeStore whose SaveBatch calls that carry key
// announce themselves and then wait for the gate: the window in which a
// save has left the cache but is not in the store yet, held open. Other
// saves, such as an eviction's of another slate meanwhile, go through.
type gatedBatchStore struct {
	*fakeStore
	key           Key
	entered, gate chan struct{}
}

func (g *gatedBatchStore) SaveBatch(recs []BatchRecord) error {
	for _, r := range recs {
		if r.K == g.key {
			g.entered <- struct{}{}
			<-g.gate
			break
		}
	}
	return g.fakeStore.SaveBatch(recs)
}

// TestShardedFlushingEntryIsNotEvictable pins the flusher's third state
// (ROADMAP Fix first 2): a slate handed to a group-commit batch is not
// dirty any more but not durable yet, and evicting it in that window
// let the reload read the older store row — every update since the
// previous flush vanished. It must stay resident until the batch's
// write returns.
func TestShardedFlushingEntryIsNotEvictable(t *testing.T) {
	store := &gatedBatchStore{newFakeStore(), k("U", "hot"), make(chan struct{}, 8), make(chan struct{})}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 2, Policy: Interval, Store: store})
	hot := k("U", "hot")
	incr := func() {
		v, err := s.Get(hot)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		if v != nil {
			fmt.Sscan(string(v), &n)
		}
		s.Put(hot, []byte(fmt.Sprint(n+1)))
	}
	for i := 0; i < 5; i++ {
		incr()
	}
	flushed := make(chan struct{})
	go func() {
		defer close(flushed)
		s.FlushDirty()
	}()
	<-store.entered // the batch carrying hot=5 is in flight
	// Two other keys fill the two-slate cache: at the parent commit the
	// now-clean hot entry is the LRU victim.
	s.Put(k("U", "a"), []byte("1"))
	s.Put(k("U", "b"), []byte("1"))
	incr() // must see 5, not a reload of the still-empty store row
	close(store.gate)
	<-flushed
	if _, err := s.FlushDirty(); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get(hot); string(v) != "6" {
		t.Fatalf("cache reads %q after 6 increments, want 6", v)
	}
	store.mu.Lock()
	stored := string(store.data[hot])
	store.mu.Unlock()
	if stored != "6" {
		t.Fatalf("store holds %q after 6 increments, want 6", stored)
	}
	// Once the write has returned the entry is evictable again and the
	// shard is back within its capacity.
	if n := s.Len(); n > 2 {
		t.Fatalf("cache holds %d slates past the flush, capacity 2", n)
	}
}

// TestShardedCrashWaitsOutFlush: a crash that lands while a group commit
// is in the store's hands returns only once that commit is stored.
func TestShardedCrashWaitsOutFlush(t *testing.T) {
	store := &gatedBatchStore{newFakeStore(), k("U", "a"), make(chan struct{}, 1), make(chan struct{})}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: Interval, Store: store})
	s.Put(k("U", "a"), []byte("1"))
	go s.FlushDirty()
	<-store.entered
	time.AfterFunc(20*time.Millisecond, func() { close(store.gate) })
	if lost := s.Crash(); lost != 0 {
		t.Fatalf("crash lost %d dirty slates, want 0: the only one was in flight", lost)
	}
	store.mu.Lock()
	stored := string(store.data[k("U", "a")])
	store.mu.Unlock()
	if stored != "1" {
		t.Fatalf("store holds %q when Crash returns, want the in-flight 1", stored)
	}
}
