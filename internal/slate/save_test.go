package slate

import (
	"strconv"
	"testing"
)

// Every save the cache makes — a flush batch, a write-through update, a
// dirty slate's eviction — is one SaveBatch that keeps the entry
// resident while it is in flight and dirty again if it fails. These
// tests pin the last two paths, each under both write paths.

// updateFn is one update of a counter slate through one of the write
// paths, returning the write's error.
type updateFn func(s *Sharded, key Key, c *countingCodec) error

// writePaths are the two ways an update reaches the cache: a byte slate
// through Get and Put, a typed slate through GetDecoded and PutDecoded.
var writePaths = map[string]updateFn{
	"Put": func(s *Sharded, key Key, _ *countingCodec) error {
		v, err := s.Get(key)
		if err != nil {
			return err
		}
		n := 0
		if v != nil {
			if n, err = strconv.Atoi(string(v)); err != nil {
				return err
			}
		}
		return s.Put(key, []byte(strconv.Itoa(n+1)))
	},
	"PutDecoded": func(s *Sharded, key Key, c *countingCodec) error {
		v, err := s.GetDecoded(key, c)
		if err != nil {
			return err
		}
		if v == nil {
			v = c.New()
		}
		*v.(*int)++
		return s.PutDecoded(key, v, c)
	},
}

func eachWritePath(t *testing.T, fn func(t *testing.T, update updateFn)) {
	for name, update := range writePaths {
		t.Run(name, func(t *testing.T) { fn(t, update) })
	}
}

// TestEvictionSaveFailureKeepsSlate: a dirty slate evicted while the
// store refuses its save stays resident and dirty, and reaches the
// store once the store takes saves again.
func TestEvictionSaveFailureKeepsSlate(t *testing.T) {
	eachWritePath(t, func(t *testing.T, update updateFn) {
		store, c := newFakeStore(), &countingCodec{}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 1, Policy: OnEvict, Store: store})
		victim := k("U", "victim")
		if err := update(s, victim, c); err != nil {
			t.Fatal(err)
		}
		store.setFailNext(1 << 30)
		calls := store.calls
		if err := update(s, k("U", "other"), c); err != nil {
			t.Fatal(err)
		}
		// One refused save per eviction walk: once the store has refused
		// the victim's, the new slate, dirty too, is not tried.
		if n := store.calls - calls; n != 1 {
			t.Fatalf("the eviction walk made %d saves, want the victim's 1", n)
		}
		if v, err := s.Get(victim); err != nil || string(v) != "1" {
			t.Fatalf("Get(victim) = %q, %v after a refused eviction; want 1", v, err)
		}
		st := s.Stats()
		if n := s.DirtyCount(); n != 2 || st.DirtyLost != 0 || st.StoreSaves != 0 {
			t.Fatalf("dirty %d, DirtyLost %d, StoreSaves %d; want 2, 0, 0", n, st.DirtyLost, st.StoreSaves)
		}
		store.setFailNext(0)
		if n, err := s.FlushDirty(); n != 2 || err != nil {
			t.Fatalf("FlushDirty = %d, %v; want 2", n, err)
		}
		if got := store.stored(victim); got != "1" {
			t.Fatalf("store holds %q for the victim, want 1", got)
		}
		if n := s.Len(); n != 1 {
			t.Fatalf("%d slates resident after the flush, want the capacity 1", n)
		}
	})
}

// TestWriteThroughSaveFailureRetriedByFlush: a write-through save the
// store refuses is returned and leaves the slate dirty, so the next
// flush stores it.
func TestWriteThroughSaveFailureRetriedByFlush(t *testing.T) {
	eachWritePath(t, func(t *testing.T, update updateFn) {
		store, c := newFakeStore(), &countingCodec{}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 4, Policy: WriteThrough, Store: store})
		key := k("U", "x")
		store.setFailNext(1)
		if err := update(s, key, c); err == nil {
			t.Fatal("a refused write-through save returned no error")
		}
		if n := s.DirtyCount(); n != 1 {
			t.Fatalf("dirty = %d after a refused write-through save, want 1", n)
		}
		if n, err := s.FlushDirty(); n != 1 || err != nil {
			t.Fatalf("FlushDirty = %d, %v; want 1", n, err)
		}
		if got := store.stored(key); got != "1" {
			t.Fatalf("store holds %q, want 1", got)
		}
		if n := s.DirtyCount(); n != 0 {
			t.Fatalf("dirty = %d after the retry, want 0", n)
		}
	})
}

// TestWriteThroughInFlightIsNotEvicted: while a write-through save is in
// flight its slate cannot be evicted, so a read in that window does not
// reload the older store row, and once the save lands the cache and the
// store both hold the new value.
func TestWriteThroughInFlightIsNotEvicted(t *testing.T) {
	eachWritePath(t, func(t *testing.T, update updateFn) {
		hot := k("U", "hot")
		store := &gatedBatchStore{newFakeStore(), hot, make(chan struct{}), make(chan struct{})}
		c := &countingCodec{}
		s := NewSharded(ShardedConfig{Shards: 1, Capacity: 1, Policy: WriteThrough, Store: store})
		saved := make(chan error, 1)
		go func() { saved <- update(s, hot, c) }() // v0 = 1
		<-store.entered
		store.gate <- struct{}{}
		if err := <-saved; err != nil {
			t.Fatal(err)
		}
		go func() { saved <- update(s, hot, c) }() // v1 = 2
		<-store.entered                            // the save of 2 is in flight
		// Another key fills the one-slate cache: were the hot entry clean
		// while its save is in flight, it would be the victim.
		if err := update(s, k("U", "other"), c); err != nil {
			t.Fatal(err)
		}
		if v, err := s.Get(hot); err != nil || string(v) != "2" {
			t.Fatalf("Get(hot) = %q, %v while its save is in flight; want 2", v, err)
		}
		store.gate <- struct{}{}
		if err := <-saved; err != nil {
			t.Fatal(err)
		}
		if v, err := s.Get(hot); err != nil || string(v) != "2" {
			t.Fatalf("Get(hot) = %q, %v after its save landed; want 2", v, err)
		}
		if got := store.stored(hot); got != "2" {
			t.Fatalf("store holds %q, want 2", got)
		}
		if n := s.Len(); n > 1 {
			t.Fatalf("%d slates resident once the save settled, capacity 1", n)
		}
	})
}
