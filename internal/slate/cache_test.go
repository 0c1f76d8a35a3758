package slate

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"muppet/internal/frame"
	"muppet/internal/kvstore"
)

// fakeStore is an in-memory Store that records operations: loads,
// SaveBatch calls, saved records, and the size of each batch it
// accepted.
type fakeStore struct {
	mu         sync.Mutex
	data       map[Key][]byte
	ttls       map[Key]time.Duration
	loads      int
	calls      int // SaveBatch calls, refused ones included
	saves      int
	batches    int
	batchSizes []int
	failNext   int // fail this many SaveBatch calls
}

func newFakeStore() *fakeStore {
	return &fakeStore{data: map[Key][]byte{}, ttls: map[Key]time.Duration{}}
}

func (f *fakeStore) Load(k Key) ([]byte, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.loads++
	v, ok := f.data[k]
	return v, ok, nil
}

func (f *fakeStore) SaveBatch(recs []BatchRecord) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failNext > 0 {
		f.failNext--
		return errors.New("fakeStore: injected failure")
	}
	f.batches++
	f.batchSizes = append(f.batchSizes, len(recs))
	for _, r := range recs {
		f.saves++
		f.data[r.K] = append([]byte(nil), r.Value...)
		f.ttls[r.K] = r.TTL
	}
	return nil
}

// setFailNext makes the next n SaveBatch calls fail.
func (f *fakeStore) setFailNext(n int) {
	f.mu.Lock()
	f.failNext = n
	f.mu.Unlock()
}

// stored reads what the store holds for k.
func (f *fakeStore) stored(k Key) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return string(f.data[k])
}

func k(u, key string) Key { return Key{Updater: u, Key: key} }

// The TestCompress*/TestDecompress* tests pin "Muppet compresses each
// slate before storing it in the key-value store" (Section 4.2) on the
// one stored format, Encode/Decode.

func TestCompressRoundTrip(t *testing.T) {
	raw := []byte(`{"count": 42, "user": "alice", "interests": ["go", "streams"]}`)
	got, err := Decode(frame.Encode(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatalf("round trip = %q", got)
	}
}

func TestCompressShrinksRedundantData(t *testing.T) {
	raw := bytes.Repeat([]byte("retailer:walmart;"), 100)
	if c := frame.Encode(raw); len(c) >= len(raw)/2 {
		t.Fatalf("compressed %d -> %d, expected much smaller", len(raw), len(c))
	}
}

func TestCompressEmpty(t *testing.T) {
	got, err := Decode(frame.Encode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("round trip of empty = %q", got)
	}
}

func TestDecompressGarbageFails(t *testing.T) {
	for _, stored := range [][]byte{
		[]byte("definitely not deflate"),                                 // no frame header
		append([]byte{frame.HeaderDeflate}, "definitely not deflate"...), // header, then no deflate stream
	} {
		if _, err := Decode(stored); err == nil {
			t.Fatalf("expected error for garbage input %q", stored)
		}
	}
}

// TestPropertyCompressRoundTrip drives the deflate branch, which
// quick's short random slates (TestPropertyEncodeRoundTrip) rarely
// reach: any non-empty pattern repeated past frame.MinCompressSize is stored
// deflated and reads back intact.
func TestPropertyCompressRoundTrip(t *testing.T) {
	f := func(pattern []byte) bool {
		if len(pattern) == 0 {
			return true
		}
		raw := bytes.Repeat(pattern, 1+frame.MinCompressSize)
		stored := frame.Encode(raw)
		got, err := Decode(stored)
		return stored[0] == frame.HeaderDeflate && err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		got, err := Decode(frame.Encode(raw))
		return err == nil && bytes.Equal(got, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyString(t *testing.T) {
	if got := k("U1", "walmart").String(); got != "U1/walmart" {
		t.Fatalf("String = %q", got)
	}
}

func TestGetMissReturnsNilForNewSlate(t *testing.T) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Store: newFakeStore()})
	v, err := c.Get(k("U", "fresh"))
	if err != nil || v != nil {
		t.Fatalf("v=%v err=%v, want nil,nil", v, err)
	}
}

func TestGetLoadsFromStoreOnMiss(t *testing.T) {
	st := newFakeStore()
	st.data[k("U", "k1")] = []byte("persisted")
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Store: st})
	v, err := c.Get(k("U", "k1"))
	if err != nil || string(v) != "persisted" {
		t.Fatalf("v=%q err=%v", v, err)
	}
	// Second get hits the cache.
	c.Get(k("U", "k1"))
	if st.loads != 1 {
		t.Fatalf("store loads = %d, want 1", st.loads)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteThroughSavesImmediately(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: WriteThrough, Store: st})
	c.Put(k("U", "k1"), []byte("v1"))
	if st.saves != 1 {
		t.Fatalf("saves = %d, want 1", st.saves)
	}
	if c.DirtyCount() != 0 {
		t.Fatal("write-through left a dirty entry")
	}
}

func TestOnEvictSavesOnlyAtEviction(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 2, Policy: OnEvict, Store: st})
	c.Put(k("U", "a"), []byte("1"))
	c.Put(k("U", "b"), []byte("2"))
	if st.saves != 0 {
		t.Fatalf("saves before eviction = %d, want 0", st.saves)
	}
	c.Put(k("U", "c"), []byte("3")) // evicts "a"
	if st.saves != 1 {
		t.Fatalf("saves after eviction = %d, want 1", st.saves)
	}
	if _, ok := st.data[k("U", "a")]; !ok {
		t.Fatal("evicted dirty slate not persisted")
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d", s.Evictions)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 2, Policy: OnEvict, Store: newFakeStore()})
	c.Put(k("U", "a"), []byte("1"))
	c.Put(k("U", "b"), []byte("2"))
	c.Get(k("U", "a")) // promote a
	c.Put(k("U", "c"), []byte("3"))
	if _, ok := c.Peek(k("U", "a")); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Peek(k("U", "b")); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestFlushDirtyPersistsAndCleans(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: Interval, Store: st})
	c.Put(k("U", "a"), []byte("1"))
	c.Put(k("U", "b"), []byte("2"))
	n, err := c.FlushDirty()
	if err != nil || n != 2 {
		t.Fatalf("FlushDirty = %d, %v", n, err)
	}
	if c.DirtyCount() != 0 {
		t.Fatal("entries still dirty after flush")
	}
	n, _ = c.FlushDirty()
	if n != 0 {
		t.Fatalf("second flush wrote %d, want 0", n)
	}
}

func TestCrashLosesDirtySlates(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: Interval, Store: st})
	c.Put(k("U", "a"), []byte("1"))
	c.Put(k("U", "b"), []byte("2"))
	c.FlushDirty()
	c.Put(k("U", "c"), []byte("3"))
	lost := c.Crash()
	if lost != 1 {
		t.Fatalf("dirty lost = %d, want 1", lost)
	}
	if c.Len() != 0 {
		t.Fatal("cache not empty after crash")
	}
	// Flushed slates survive in the store.
	if _, ok := st.data[k("U", "a")]; !ok {
		t.Fatal("flushed slate lost")
	}
	if _, ok := st.data[k("U", "c")]; ok {
		t.Fatal("unflushed slate magically survived")
	}
	// Until Revive the crashed cache reads through without caching and
	// drops every write, counting it lost.
	if v, _ := c.Get(k("U", "a")); string(v) != "1" {
		t.Fatalf("read through a crashed cache = %q, want 1", v)
	}
	c.Put(k("U", "a"), []byte("9"))
	if c.Len() != 0 || c.Stats().DirtyLost != 2 {
		t.Fatalf("crashed cache holds %d slates, %d lost; want 0, 2", c.Len(), c.Stats().DirtyLost)
	}
	c.Revive()
	c.Put(k("U", "a"), []byte("9"))
	if v, ok := c.Peek(k("U", "a")); !ok || string(v) != "9" {
		t.Fatalf("revived cache reads %q, %v; want 9", v, ok)
	}
}

func TestTTLPassedPerUpdater(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{
		Shards:   1,
		Capacity: 10,
		Policy:   WriteThrough,
		Store:    st,
		TTLFor: func(u string) time.Duration {
			if u == "shortlived" {
				return time.Minute
			}
			return 0
		},
	})
	c.Put(k("shortlived", "a"), []byte("1"))
	c.Put(k("eternal", "b"), []byte("2"))
	if st.ttls[k("shortlived", "a")] != time.Minute {
		t.Fatalf("ttl = %v, want 1m", st.ttls[k("shortlived", "a")])
	}
	if st.ttls[k("eternal", "b")] != 0 {
		t.Fatalf("ttl = %v, want 0", st.ttls[k("eternal", "b")])
	}
}

func TestDeleteRemovesWithoutSave(t *testing.T) {
	st := newFakeStore()
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: OnEvict, Store: st})
	c.Put(k("U", "a"), []byte("1"))
	c.Delete(k("U", "a"))
	if st.saves != 0 {
		t.Fatal("Delete persisted the slate")
	}
	if c.Len() != 0 {
		t.Fatal("entry survived Delete")
	}
}

func TestPeekDoesNotPromote(t *testing.T) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 2, Policy: OnEvict, Store: newFakeStore()})
	c.Put(k("U", "a"), []byte("1"))
	c.Put(k("U", "b"), []byte("2"))
	c.Peek(k("U", "a")) // must NOT promote
	c.Put(k("U", "c"), []byte("3"))
	if _, ok := c.Peek(k("U", "a")); ok {
		t.Fatal("Peek promoted the entry")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 100, Policy: Interval, Store: newFakeStore()})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := k("U", fmt.Sprintf("k%d", i%50))
				if i%3 == 0 {
					c.Put(key, []byte{byte(g)})
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 100 {
		t.Fatalf("cache exceeded capacity: %d", c.Len())
	}
}

func TestCapacityNeverExceeded(t *testing.T) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 5, Policy: OnEvict, Store: newFakeStore()})
	for i := 0; i < 100; i++ {
		c.Put(k("U", fmt.Sprintf("k%d", i)), []byte("v"))
		if c.Len() > 5 {
			t.Fatalf("capacity exceeded at insert %d: %d", i, c.Len())
		}
	}
}

func TestKVAdapterRoundTripCompressed(t *testing.T) {
	cl := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	st := &KVStore{Cluster: cl, Level: kvstore.Quorum}
	key := k("U1", "user42")
	want := []byte(`{"count": 7}`)
	if err := st.SaveBatch([]BatchRecord{{K: key, Value: want}}); err != nil {
		t.Fatal(err)
	}
	got, found, err := st.Load(key)
	if err != nil || !found || !bytes.Equal(got, want) {
		t.Fatalf("got=%q found=%v err=%v", got, found, err)
	}
	// Verify the stored representation really is compressed (differs
	// from raw).
	rawStored, foundRaw, _, _ := cl.Get("user42", "U1", kvstore.Quorum)
	if !foundRaw || bytes.Equal(rawStored, want) {
		t.Fatal("slate stored uncompressed")
	}
}

func TestKVAdapterMissingSlate(t *testing.T) {
	cl := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	st := &KVStore{Cluster: cl, Level: kvstore.One}
	_, found, err := st.Load(k("U", "nope"))
	if err != nil || found {
		t.Fatalf("found=%v err=%v", found, err)
	}
}

func TestFlushPolicyString(t *testing.T) {
	names := map[FlushPolicy]string{WriteThrough: "write-through", Interval: "interval", OnEvict: "on-evict", FlushPolicy(9): "unknown"}
	for p, want := range names {
		if p.String() != want {
			t.Fatalf("String(%d) = %q", p, p.String())
		}
	}
}
