package slate

import (
	"bytes"
	"fmt"
	"testing"

	"muppet/internal/kvstore"
)

// tweetish is a slate object with pointers in it, as an application's
// typed slate has.
type tweetish struct {
	User  string
	Count int
}

type tweetishCodec struct{ Alloc[tweetish] }

func (tweetishCodec) Decode([]byte) (any, error)                     { return new(tweetish), nil }
func (tweetishCodec) AppendEncode(dst []byte, _ any) ([]byte, error) { return append(dst, '0'), nil }

// TestCacheInsertAllocBudget: a typed update of a slate the cache does
// not hold allocates one block — the entry, its copy of the key, room
// for the encoding and the zero object the updater starts from —
// nothing for the LRU list, while the cache, full, evicts one slate per
// insert.
func TestCacheInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const capacity = 64
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: capacity, Policy: OnEvict})
	keys := make([]Key, 4*capacity)
	for i := range keys {
		keys[i] = Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}
	}
	var c tweetishCodec
	i := 0
	insert := func() {
		k := keys[i%len(keys)]
		i++
		v, err := s.GetDecoded(k, c)
		if err != nil || v == nil || *v.(*tweetish) != (tweetish{}) {
			t.Fatalf("GetDecoded(%v) = %v, %v: want a fresh zero slate", k, v, err)
		}
		if err := s.PutDecoded(k, v, c); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * capacity { // fill the cache and its maps
		insert()
	}
	if n := testing.AllocsPerRun(2*capacity, insert); n != 1 {
		t.Fatalf("a typed insert allocated %.1f times, want 1 (the entry block)", n)
	}
	if got := s.Len(); got != capacity {
		t.Fatalf("%d slates resident, want %d", got, capacity)
	}
}

// TestStoreLoadAllocBudget: a cache miss on a slate the store holds
// copies the stored row once, into the new entry's block. Loading n
// stored slates over a real KVStore, into a cache whose map has grown
// to hold them, allocates the n blocks and nothing else per slate.
func TestStoreLoadAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n, fixed = 512, 4
	kv := &KVStore{Cluster: kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1}), Level: kvstore.One}
	keys := make([]Key, n)
	recs := make([]BatchRecord, n)
	for i := range keys {
		keys[i] = Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}
		recs[i] = BatchRecord{K: keys[i], Value: []byte(fmt.Sprintf(`{"user":"user%05d","count":%d}`, i, i))}
	}
	if err := kv.SaveBatch(recs); err != nil {
		t.Fatal(err)
	}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: n, Policy: Interval, Store: kv})
	loadAll := func() {
		for _, k := range keys {
			sh := s.shardFor(k)
			sh.mu.Lock()
			e, err := s.lookupLocked(sh, k)
			sh.mu.Unlock()
			if e == nil || err != nil {
				t.Fatalf("load %v: %v", k, err)
			}
		}
	}
	// The first round, AllocsPerRun's warm-up, grows the cache's map;
	// the slates are deleted after each round, so every load misses.
	allocs := testing.AllocsPerRun(1, func() {
		loadAll()
		for _, k := range keys {
			s.Delete(k)
		}
	})
	if allocs > n+fixed {
		t.Fatalf("loading %d stored slates allocated %.0f times, want <= %d (a block each and %d more)", n, allocs, n+fixed, fixed)
	}
	loadAll()
	for i, k := range keys {
		if v, _ := s.Peek(k); !bytes.Equal(v, recs[i].Value) {
			t.Fatalf("slate %v = %q, want %q", k, v, recs[i].Value)
		}
	}
}

// TestSaveBatchAllocBudget: KVStore.SaveBatch frames a batch and hands
// it to the cluster in scratch the store keeps, so re-saving slates the
// replicas already hold allocates nothing, at RF 1 and RF 3.
func TestSaveBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	recs := make([]BatchRecord, 64)
	for i := range recs {
		recs[i] = BatchRecord{K: Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}, Value: []byte(fmt.Sprintf(`{"count":%d}`, i))}
	}
	for _, rf := range []int{1, 3} {
		kv := &KVStore{Cluster: kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: rf}), Level: kvstore.One}
		if err := kv.SaveBatch(recs); err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(50, func() { kv.SaveBatch(recs) }); n != 0 {
			t.Errorf("re-saving %d slates at RF %d allocated %.1f times, want 0", len(recs), rf, n)
		}
	}
}
