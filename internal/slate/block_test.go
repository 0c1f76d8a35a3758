package slate

import (
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
)

// rowStore is a Store whose Load hands out its own row, as a store
// reading from a memtable may, and whose SaveBatch keeps nothing:
// neither allocates.
type rowStore struct{ rows map[Key][]byte }

func (r *rowStore) Load(k Key) ([]byte, bool, error) { v, ok := r.rows[k]; return v, ok, nil }
func (r *rowStore) SaveBatch([]BatchRecord) error    { return nil }

// TestLoadedSlateFlushAllocBudget: a slate loaded from the store is
// copied into the room of its entry's block, and decoding it does not
// end that room, so a load, GetDecoded, PutDecoded and flush of a
// stored key costs the block and the decode's own allocations: its
// encode rewrites the room in place.
func TestLoadedSlateFlushAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 128
	st := &rowStore{rows: map[Key][]byte{}}
	keys := make([]Key, 2*n)
	for i := range keys {
		keys[i] = Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}
		st.rows[keys[i]] = []byte("1234567")
	}
	c := &countingCodec{}
	decode := testing.AllocsPerRun(100, func() { c.Decode(st.rows[keys[0]]) })
	// The cache holds half the keys: each round loads the other half,
	// evicting the clean slates the previous round flushed.
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: n, Policy: Interval, Store: st})
	half := 0
	round := func() {
		for _, k := range keys[half*n : (half+1)*n] {
			typedUpdate(t, s, k, c)
		}
		if got, err := s.FlushDirty(); got != n || err != nil {
			t.Fatalf("FlushDirty = %d, %v; want %d", got, err, n)
		}
		half = 1 - half
	}
	round()
	round()
	encodes := c.encodes.Load()
	allocs := testing.AllocsPerRun(10, round)
	if c.encodes.Load() == encodes {
		t.Fatal("the rounds encoded nothing")
	}
	// A flush round allocates a fixed few (see TestFlushReencodeAllocBudget).
	if perKey := (allocs - 4) / n; perKey > 1+decode {
		t.Fatalf("a loaded slate's update and flush allocated %.2f times, want <= %.0f (its block and its decode)", perKey, 1+decode)
	}
}

// TestLoadedSlateKeepsItsValue: a slate loaded from the store is the
// cache's own copy, so the store reusing the row's bytes afterwards
// does not change it.
func TestLoadedSlateKeepsItsValue(t *testing.T) {
	for _, typed := range []bool{false, true} {
		t.Run(fmt.Sprintf("typed=%v", typed), func(t *testing.T) {
			st := &rowStore{rows: map[Key][]byte{}}
			key := k("U", "x")
			st.rows[key] = []byte("41")
			s := NewSharded(ShardedConfig{Shards: 1, Capacity: 4, Policy: Interval, Store: st})
			c := &countingCodec{}
			if typed {
				v, err := s.GetDecoded(key, c)
				if err != nil || *v.(*int) != 41 {
					t.Fatalf("GetDecoded = %v, %v", v, err)
				}
				// Release the pin with the object unchanged: the entry's
				// encoding is still the loaded one.
				s.PutDecoded(key, v, c)
			} else if v, err := s.Get(key); err != nil || string(v) != "41" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			copy(st.rows[key], "99")
			if v, _ := s.Peek(key); string(v) != "41" {
				t.Fatalf("the cached slate reads %q after the store reused its row, want 41", v)
			}
		})
	}
}

// gatedStore holds the next SaveBatch, once armed, until released.
type gatedStore struct {
	*fakeStore
	armed            atomic.Bool
	entered, release chan struct{}
}

func (g *gatedStore) SaveBatch(recs []BatchRecord) error {
	if g.armed.CompareAndSwap(true, false) {
		g.entered <- struct{}{}
		<-g.release
	}
	return g.fakeStore.SaveBatch(recs)
}

// TestSavesOfOneSlateLandInOrder: a write-through update of a slate
// whose previous save is still in flight (a flush retrying a refused
// write-through save) does not start a second save that could land
// first; the save in flight saves it once it returns, so the store ends
// at the newest value, and a reload after eviction reads it.
func TestSavesOfOneSlateLandInOrder(t *testing.T) {
	eachWritePath(t, func(t *testing.T, update updateFn) {
		store := &gatedStore{fakeStore: newFakeStore(), entered: make(chan struct{}), release: make(chan struct{})}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 1, Policy: WriteThrough, Store: store})
		c := &countingCodec{}
		key := k("U", "x")
		store.setFailNext(1)
		if err := update(s, key, c); err == nil {
			t.Fatal("the refused write-through save returned no error")
		}
		store.armed.Store(true)
		flushed := make(chan error)
		go func() { _, err := s.FlushDirty(); flushed <- err }()
		<-store.entered // the flush carries 1 and is held in SaveBatch
		if err := update(s, key, c); err != nil {
			t.Fatal(err)
		}
		close(store.release)
		if err := <-flushed; err != nil {
			t.Fatal(err)
		}
		if got := store.stored(key); got != "2" {
			t.Fatalf("store holds %q, want the newest value 2", got)
		}
		if err := update(s, k("U", "other"), c); err != nil { // evicts x
			t.Fatal(err)
		}
		if v, err := s.Get(key); err != nil || string(v) != "2" {
			t.Fatalf("Get after eviction = %q, %v; want 2", v, err)
		}
		if st := s.Stats(); st.DirtyLost != 0 {
			t.Fatalf("DirtyLost = %d", st.DirtyLost)
		}
	})
}

// TestRefusedSavesAreCounted: every record the store refuses counts in
// SaveErrors, on each path a save takes.
func TestRefusedSavesAreCounted(t *testing.T) {
	t.Run("write-through", func(t *testing.T) {
		eachWritePath(t, func(t *testing.T, update updateFn) {
			store := newFakeStore()
			s := NewSharded(ShardedConfig{Shards: 1, Capacity: 4, Policy: WriteThrough, Store: store})
			store.setFailNext(1)
			if err := update(s, k("U", "x"), &countingCodec{}); err == nil {
				t.Fatal("the refused save returned no error")
			}
			if got := s.Stats().SaveErrors; got != 1 {
				t.Fatalf("SaveErrors = %d after a refused write-through save, want 1", got)
			}
		})
	})
	t.Run("flush", func(t *testing.T) {
		store, c := newFakeStore(), &countingCodec{}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 8, Policy: Interval, Store: store})
		for i := range 3 {
			typedUpdate(t, s, k("U", strconv.Itoa(i)), c)
		}
		store.setFailNext(1)
		if _, err := s.FlushDirty(); err == nil {
			t.Fatal("the refused flush returned no error")
		}
		if got := s.Stats().SaveErrors; got != 3 {
			t.Fatalf("SaveErrors = %d after a refused batch of 3, want 3", got)
		}
	})
	t.Run("eviction", func(t *testing.T) {
		store, c := newFakeStore(), &countingCodec{}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 1, Policy: OnEvict, Store: store})
		typedUpdate(t, s, k("U", "victim"), c)
		store.setFailNext(1)
		typedUpdate(t, s, k("U", "other"), c)
		if got := s.Stats().SaveErrors; got != 1 {
			t.Fatalf("SaveErrors = %d after a refused eviction save, want 1", got)
		}
	})
}
