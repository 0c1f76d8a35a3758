package slate

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// sinkStore is a Store that keeps nothing and allocates nothing, as a
// Store may: what a flush costs is then the cache's own.
type sinkStore struct{ saves int }

func (s *sinkStore) Load(Key) ([]byte, bool, error)     { return nil, false, nil }
func (s *sinkStore) SaveBatch(recs []BatchRecord) error { s.saves += len(recs); return nil }

// TestFlushReencodeAllocBudget: once a typed slate has been flushed,
// its next encode rewrites the entry's own buffer, so a round of n
// typed updates and one group commit allocates a fixed few (the
// batch's chunk list), nothing per slate.
func TestFlushReencodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, n := range []int{64, 512} {
		st := &sinkStore{}
		s := NewSharded(ShardedConfig{Capacity: 2 * n, Policy: Interval, Store: st})
		c := &countingCodec{}
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}
		}
		round := func() {
			for _, k := range keys {
				typedUpdate(t, s, k, c)
			}
			if got, err := s.FlushDirty(); got != n || err != nil {
				t.Fatalf("FlushDirty = %d, %v; want %d", got, err, n)
			}
		}
		round()
		if allocs := testing.AllocsPerRun(20, round); allocs > 4 {
			t.Errorf("a round of %d updates and a flush allocated %.0f times, want <= 4", n, allocs)
		}
	}
}

// heldStore checks, at the end of each SaveBatch, that the batch's
// values still read as they did when the batch arrived; with a gate it
// holds each batch open in between.
type heldStore struct {
	*fakeStore
	entered, gate chan struct{}
	mu            sync.Mutex
	changed       int
}

func (h *heldStore) SaveBatch(recs []BatchRecord) error {
	want := make([][]byte, len(recs))
	for i, r := range recs {
		want[i] = bytes.Clone(r.Value)
	}
	if h.gate != nil {
		h.entered <- struct{}{}
		<-h.gate
	}
	for i, r := range recs {
		if !bytes.Equal(r.Value, want[i]) {
			h.mu.Lock()
			h.changed++
			h.mu.Unlock()
		}
	}
	return h.fakeStore.SaveBatch(recs)
}

// TestHandedOutEncodingsNeverChange: bytes returned by Peek, Get and a
// raw Scan row, and the values a flush batch carries, read the same
// however the slate is updated, flushed and encoded after.
func TestHandedOutEncodingsNeverChange(t *testing.T) {
	store := &heldStore{fakeStore: newFakeStore(), entered: make(chan struct{}), gate: make(chan struct{})}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 16, Policy: Interval, Store: store})
	c := &countingCodec{}
	key := k("U", "x")
	type held struct{ got, want []byte }
	var kept []held
	keep := func(b []byte) {
		if b == nil {
			t.Fatal("no encoding handed out")
		}
		kept = append(kept, held{b, bytes.Clone(b)})
	}
	check := func(when string) {
		t.Helper()
		for i, h := range kept {
			if !bytes.Equal(h.got, h.want) {
				t.Fatalf("%s: encoding %d handed out as %q now reads %q", when, i, h.want, h.got)
			}
		}
	}
	flush := func() {
		t.Helper()
		done := make(chan struct{})
		go func() { defer close(done); s.FlushDirty() }()
		<-store.entered
		// The batch is in the store's hands: update the slate and make
		// Peek encode it while the batch still carries the old bytes.
		typedUpdate(t, s, key, c)
		b, _ := s.Peek(key)
		keep(b)
		store.gate <- struct{}{}
		<-done
	}
	for round := 0; round < 4; round++ {
		typedUpdate(t, s, key, c)
		flush()
		typedUpdate(t, s, key, c)
		flush()
		b, _ := s.Peek(key)
		keep(b)
		typedUpdate(t, s, key, c)
		b, err := s.Get(key)
		if err != nil {
			t.Fatal(err)
		}
		keep(b)
		typedUpdate(t, s, key, c)
		s.Scan("U", nil, 0, func(r CacheRow) { keep(r.Raw) })
		check(fmt.Sprintf("round %d", round))
	}
	// Drain what the last round left dirty, then check the last value.
	go func() { <-store.entered; store.gate <- struct{}{} }()
	s.FlushDirty()
	check("end")
	if store.changed != 0 {
		t.Fatalf("%d flush batches saw their values change under SaveBatch", store.changed)
	}
	if got, want := string(store.data[key]), fmt.Sprint(4*6); got != want {
		t.Fatalf("stored slate = %q, want %q", got, want)
	}
}

// reentrantStore's SaveBatch runs the slate's next update before it
// reads the value it was handed: a WriteThrough save runs outside the
// shard lock, so it may overlap the slate's next update and encode. It
// records the value each save received.
type reentrantStore struct {
	*fakeStore
	next  func()
	saved []string
}

func (r *reentrantStore) SaveBatch(recs []BatchRecord) error {
	v := recs[0].Value
	want := bytes.Clone(v)
	if next := r.next; next != nil {
		r.next = nil
		next()
	}
	if !bytes.Equal(v, want) {
		return fmt.Errorf("saved value %q changed to %q during SaveBatch", want, v)
	}
	r.saved = append(r.saved, string(v))
	return r.fakeStore.SaveBatch(recs)
}

// TestWriteThroughSaveKeepsItsValue: the value a WriteThrough update
// saves is not rewritten by the update that follows while it is saved,
// and that update, which finds the save in flight, is saved after it
// by the same call, so the store ends at the newest value.
func TestWriteThroughSaveKeepsItsValue(t *testing.T) {
	store := &reentrantStore{fakeStore: newFakeStore()}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 16, Policy: WriteThrough, Store: store})
	c := &countingCodec{}
	key := k("U", "x")
	typedUpdate(t, s, key, c)
	store.next = func() { typedUpdate(t, s, key, c) }
	typedUpdate(t, s, key, c)
	if got, want := fmt.Sprint(store.saved), "[1 2 3]"; got != want {
		t.Fatalf("the saves received %s, want %s", got, want)
	}
	if got := string(store.data[key]); got != "3" {
		t.Fatalf("stored slate = %q, want the nested update's 3", got)
	}
}

// TestHandedOutEncodingsNeverChangeConcurrently runs the contract
// across goroutines, for the race detector: readers hold what Peek, Get
// and Scan handed them while an updater re-encodes the slates, by group
// commits (Interval) or by per-update saves (WriteThrough).
func TestHandedOutEncodingsNeverChangeConcurrently(t *testing.T) {
	for _, policy := range []FlushPolicy{Interval, WriteThrough} {
		t.Run(policy.String(), func(t *testing.T) {
			store := &heldStore{fakeStore: newFakeStore()}
			s := NewSharded(ShardedConfig{Shards: 2, Capacity: 64, Policy: policy, Store: store})
			c := &countingCodec{}
			keys := []Key{k("U", "a"), k("U", "b"), k("U", "c")}
			for _, key := range keys {
				typedUpdate(t, s, key, c)
			}
			var wg sync.WaitGroup
			stop := make(chan struct{})
			update := func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					for _, key := range keys {
						v, err := s.GetDecoded(key, c)
						if err != nil || v == nil {
							t.Errorf("GetDecoded(%v) = %v, %v", key, v, err)
							return
						}
						*v.(*int)++
						if err := s.PutDecoded(key, v, c); err != nil {
							t.Error(err)
							return
						}
					}
					if _, err := s.FlushDirty(); err != nil {
						t.Error(err)
						return
					}
				}
			}
			wg.Add(1)
			go update()
			for i := 0; i < 300; i++ {
				var got, want [][]byte
				hold := func(b []byte) {
					if b != nil {
						got, want = append(got, b), append(want, bytes.Clone(b))
					}
				}
				key := keys[i%len(keys)]
				b, _ := s.Peek(key)
				hold(b)
				b, err := s.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				hold(b)
				s.Scan("U", nil, 0, func(r CacheRow) { hold(r.Raw) })
				runtime.Gosched()
				for j := range got {
					if !bytes.Equal(got[j], want[j]) {
						t.Fatalf("encoding handed out as %q now reads %q", want[j], got[j])
					}
				}
			}
			close(stop)
			wg.Wait()
			if store.changed != 0 {
				t.Fatalf("%d flush batches saw their values change under SaveBatch", store.changed)
			}
		})
	}
}
