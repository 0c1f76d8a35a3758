package slate

import (
	"bytes"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

// countingCodec is a test Codec over an int slate (ASCII decimal at
// rest) that counts decode and encode calls — the decode-once /
// encode-per-flush contract is asserted on these counters.
type countingCodec struct {
	Alloc[int]
	decodes atomic.Int64
	encodes atomic.Int64
	// failEncode forces AppendEncode errors when set.
	failEncode atomic.Bool
}

func (c *countingCodec) Decode(data []byte) (any, error) {
	c.decodes.Add(1)
	n, err := strconv.Atoi(string(data))
	if err != nil {
		return nil, err
	}
	return &n, nil
}

func (c *countingCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	if c.failEncode.Load() {
		return nil, errors.New("encode failed")
	}
	c.encodes.Add(1)
	return strconv.AppendInt(dst, int64(*v.(*int)), 10), nil
}

// eachStore runs fn against a fresh single-lock (one shard) and a
// fresh striped store (each subtest gets its own store and codec, so
// the contract assertions cannot bleed across them).
func eachStore(t *testing.T, capacity int, policy FlushPolicy, withStore bool, fn func(t *testing.T, s *Sharded, store *fakeStore, c *countingCodec)) {
	t.Helper()
	for name, shards := range map[string]int{"single-lock": 1, "sharded": 4} {
		t.Run(name, func(t *testing.T) {
			var store *fakeStore
			cfg := ShardedConfig{Shards: shards, Capacity: capacity, Policy: policy}
			if withStore {
				store = newFakeStore()
				cfg.Store = store
			}
			fn(t, NewSharded(cfg), store, &countingCodec{})
		})
	}
}

// typedUpdate mimics one engine update invocation: get-decoded (or
// fresh), mutate, put-decoded.
func typedUpdate(t *testing.T, s *Sharded, key Key, c *countingCodec) {
	t.Helper()
	v, err := s.GetDecoded(key, c)
	if err != nil {
		t.Fatal(err)
	}
	if v == nil {
		v = c.New()
	}
	*v.(*int)++
	if err := s.PutDecoded(key, v, c); err != nil {
		t.Fatal(err)
	}
}

func TestDecodedDecodeOnceEncodePerFlush(t *testing.T) {
	eachStore(t, 100, Interval, true, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			const events = 50
			for i := 0; i < events; i++ {
				typedUpdate(t, s, key, c)
			}
			// The slate never existed at rest, so nothing was decoded;
			// nothing was encoded either — no flush, no external read.
			if d := c.decodes.Load(); d != 0 {
				t.Fatalf("decodes before flush = %d, want 0", d)
			}
			if e := c.encodes.Load(); e != 0 {
				t.Fatalf("encodes before flush = %d, want 0", e)
			}
			if n, err := s.FlushDirty(); err != nil || n != 1 {
				t.Fatalf("FlushDirty = %d, %v", n, err)
			}
			// events updates, one flush: exactly one encode.
			if e := c.encodes.Load(); e != 1 {
				t.Fatalf("encodes after flush = %d, want 1", e)
			}
			if v, err := s.Get(key); err != nil || string(v) != strconv.Itoa(events) {
				t.Fatalf("Get = %q, %v", v, err)
			}
		}
	})
}

func TestDecodedLoadsAndDecodesFromStoreOnce(t *testing.T) {
	eachStore(t, 100, Interval, true, func(t *testing.T, s *Sharded, store *fakeStore, c *countingCodec) {
		{
			store.data[k("U", "x")] = []byte("41")
			for i := 0; i < 10; i++ {
				typedUpdate(t, s, k("U", "x"), c)
			}
			// One cache fill = one store load + one decode, however
			// many updates follow.
			if d := c.decodes.Load(); d != 1 {
				t.Fatalf("decodes = %d, want 1", d)
			}
			s.FlushDirty()
			if v, _, _ := store.Load(k("U", "x")); string(v) != "51" {
				t.Fatalf("stored = %q, want 51", v)
			}
		}
	})
}

func TestDecodedReadsEncodeLazily(t *testing.T) {
	eachStore(t, 100, Interval, false, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			typedUpdate(t, s, k("U", "x"), c)
			typedUpdate(t, s, k("U", "x"), c)
			// Get and Peek materialize the encoding on demand...
			if v, err := s.Get(k("U", "x")); err != nil || string(v) != "2" {
				t.Fatalf("Get = %q, %v", v, err)
			}
			if v, ok := s.Peek(k("U", "x")); !ok || string(v) != "2" {
				t.Fatalf("Peek = %q, %v", v, ok)
			}
			// ...exactly once while the object is unchanged.
			if e := c.encodes.Load(); e != 1 {
				t.Fatalf("encodes = %d, want 1", e)
			}
			// Another update invalidates the snapshot; the next read
			// re-encodes.
			typedUpdate(t, s, k("U", "x"), c)
			if v, _ := s.Get(k("U", "x")); string(v) != "3" {
				t.Fatalf("Get after update = %q", v)
			}
			if e := c.encodes.Load(); e != 2 {
				t.Fatalf("encodes = %d, want 2", e)
			}
		}
	})
}

func TestDecodedPinBlocksFlushUntilPut(t *testing.T) {
	eachStore(t, 100, Interval, true, func(t *testing.T, s *Sharded, store *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			typedUpdate(t, s, key, c)
			// Simulate an in-flight invocation: GetDecoded pins the
			// entry and the updater is "mutating" the object.
			v, err := s.GetDecoded(key, c)
			if err != nil || v == nil {
				t.Fatalf("GetDecoded = %v, %v", v, err)
			}
			if n, err := s.FlushDirty(); err != nil || n != 0 {
				t.Fatalf("flush during pin = %d, %v; want 0 flushed", n, err)
			}
			if s.DirtyCount() != 1 {
				t.Fatalf("pinned entry lost its dirty mark")
			}
			*v.(*int)++
			if err := s.PutDecoded(key, v, c); err != nil {
				t.Fatal(err)
			}
			if n, err := s.FlushDirty(); err != nil || n != 1 {
				t.Fatalf("flush after put = %d, %v; want 1", n, err)
			}
			if got, _, _ := store.Load(key); string(got) != "2" {
				t.Fatalf("stored = %q, want 2", got)
			}
		}
	})
}

func TestDecodedEvictionSkipsPinnedEntry(t *testing.T) {
	eachStore(t, 2, OnEvict, true, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			pinned := k("U", "pinned")
			typedUpdate(t, s, pinned, c)
			v, err := s.GetDecoded(pinned, c) // hold the pin
			if err != nil || v == nil {
				t.Fatal("pin setup failed")
			}
			// Overflow the cache (and every shard) so eviction must
			// pass over the pinned entry; it may only evict others.
			for i := 0; i < 64; i++ {
				s.Put(k("U", "filler"+strconv.Itoa(i)), []byte("x"))
			}
			if _, ok := s.Peek(pinned); !ok {
				t.Fatal("pinned entry was evicted")
			}
			s.PutDecoded(pinned, v, c)
			if n, err := s.FlushDirty(); err != nil || n < 1 {
				t.Fatalf("flush after unpin = %d, %v", n, err)
			}
		}
	})
}

func TestDecodedEncodeErrorKeepsEntryDirty(t *testing.T) {
	eachStore(t, 100, Interval, true, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			typedUpdate(t, s, k("U", "x"), c)
			c.failEncode.Store(true)
			if n, _ := s.FlushDirty(); n != 0 {
				t.Fatalf("flushed %d records despite encode failure", n)
			}
			if s.DirtyCount() != 1 {
				t.Fatal("entry lost its dirty mark on encode failure")
			}
			if got := s.Stats().EncodeErrors; got != 1 {
				t.Fatalf("EncodeErrors = %d, want 1", got)
			}
			c.failEncode.Store(false)
			if n, err := s.FlushDirty(); err != nil || n != 1 {
				t.Fatalf("retry flush = %d, %v", n, err)
			}
		}
	})
}

func TestDecodedWriteThroughEncodesAndSavesPerPut(t *testing.T) {
	eachStore(t, 100, WriteThrough, true, func(t *testing.T, s *Sharded, store *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			before := c.encodes.Load()
			typedUpdate(t, s, key, c)
			typedUpdate(t, s, key, c)
			if e := c.encodes.Load() - before; e != 2 {
				t.Fatalf("encodes = %d, want 2 (one per write-through put)", e)
			}
			if v, _, _ := store.Load(key); string(v) != "2" {
				t.Fatalf("stored = %q, want 2", v)
			}
			if s.DirtyCount() != 0 {
				t.Fatal("write-through left the entry dirty")
			}
		}
	})
}

func TestDecodedBytePutInvalidatesDecodedObject(t *testing.T) {
	eachStore(t, 100, Interval, false, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			typedUpdate(t, s, key, c)
			// A byte-level Put (e.g. recovery warm or a classic
			// updater) makes the bytes the source of truth again.
			if err := s.Put(key, []byte("99")); err != nil {
				t.Fatal(err)
			}
			if v, _ := s.Get(key); string(v) != "99" {
				t.Fatalf("Get = %q, want 99", v)
			}
			// The next typed read decodes the new bytes.
			typedUpdate(t, s, key, c)
			if v, _ := s.Get(key); string(v) != "100" {
				t.Fatalf("Get = %q, want 100", v)
			}
		}
	})
}

func TestDecodedCorruptSlateReportsError(t *testing.T) {
	eachStore(t, 100, Interval, false, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			s.Put(key, []byte("not a number"))
			if _, err := s.GetDecoded(key, c); err == nil {
				t.Fatal("GetDecoded of corrupt slate returned nil error")
			}
			if got := s.Stats().DecodeErrors; got != 1 {
				t.Fatalf("DecodeErrors = %d, want 1", got)
			}
			// The engine's typed path falls back to a fresh object and
			// overwrites — exactly what PutDecoded does here.
			v := c.New()
			*v.(*int) = 7
			if err := s.PutDecoded(key, v, c); err != nil {
				t.Fatal(err)
			}
			if got, _ := s.Get(key); string(got) != "7" {
				t.Fatalf("Get = %q, want 7", got)
			}
		}
	})
}

func TestDecodedSnapshotDuringPinServesLastEncoding(t *testing.T) {
	eachStore(t, 100, Interval, false, func(t *testing.T, s *Sharded, _ *fakeStore, c *countingCodec) {
		{
			key := k("U", "x")
			typedUpdate(t, s, key, c)
			if v, _ := s.Get(key); string(v) != "1" {
				t.Fatalf("Get = %q", v) // materializes the "1" snapshot
			}
			v, _ := s.GetDecoded(key, c) // pin
			*v.(*int) = 42               // concurrent mutation in progress
			// Reads during the pin must not race the mutation: they
			// serve the last materialized encoding.
			if got, _ := s.Get(key); !bytes.Equal(got, []byte("1")) {
				t.Fatalf("Get during pin = %q, want last snapshot 1", got)
			}
			s.PutDecoded(key, v, c)
			if got, _ := s.Get(key); string(got) != "42" {
				t.Fatalf("Get after put = %q, want 42", got)
			}
		}
	})
}

// A new typed slate inserted into a shard whose every other entry is
// pinned evicts itself; what that eviction saves must be the object's
// encoding (it was an empty value, and the next load of the key failed
// to decode and restarted the slate from zero).
func TestPutDecodedEvictingItselfSavesTheObject(t *testing.T) {
	store, c := newFakeStore(), &countingCodec{}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 1, Policy: Interval, Store: store})
	typedUpdate(t, s, k("U", "held"), c)
	if _, err := s.GetDecoded(k("U", "held"), c); err != nil { // stays pinned
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		typedUpdate(t, s, k("U", "new"), c)
	}
	if got := string(store.data[k("U", "new")]); got != "3" {
		t.Fatalf("store holds %q for the self-evicted slate, want its encoding 3", got)
	}
}

// intReader reads a countingCodec object as the typed view would.
func intReader(decoded any, dst []Scalar) bool {
	dst[0] = Scalar{Kind: Number, Num: float64(*decoded.(*int))}
	return true
}

// Scan reads quiescent decoded slates as objects (no encode), hands out
// encodings for byte entries, treats a never-encoded pinned slate as no
// slate, and runs its callback with no shard lock held.
func TestScanReadsObjectsAndEncodings(t *testing.T) {
	c := &countingCodec{}
	s := NewSharded(ShardedConfig{Shards: 2, Capacity: 100, Policy: Interval})
	for i := 0; i < 3; i++ {
		typedUpdate(t, s, k("U", "typed"), c)
	}
	s.Put(k("U", "bytes"), []byte("7"))
	s.Put(k("V", "other"), []byte("9"))
	typedUpdate(t, s, k("U", "parked"), c)
	if _, err := s.GetDecoded(k("U", "parked"), c); err != nil { // pinned, never encoded
		t.Fatal(err)
	}
	got := map[string]string{}
	s.Scan("U", intReader, 1, func(r CacheRow) {
		if r.Raw != nil {
			got[r.Key] = "raw:" + string(r.Raw)
		} else {
			got[r.Key] = "obj:" + strconv.Itoa(int(r.Vals[0].Num))
		}
		s.Len() // takes every shard lock: would self-deadlock under one
	})
	if len(got) != 2 || got["typed"] != "obj:3" || got["bytes"] != "raw:7" {
		t.Fatalf("Scan = %v, want typed read as the object, bytes as its encoding, parked skipped", got)
	}
	if e := c.encodes.Load(); e != 0 {
		t.Fatalf("the typed view encoded %d slates", e)
	}
	// No reader: the codec declined, so Scan materializes encodings.
	got = map[string]string{}
	s.Scan("U", nil, 0, func(r CacheRow) { got[r.Key] = "raw:" + string(r.Raw) })
	if len(got) != 2 || got["typed"] != "raw:3" || got["bytes"] != "raw:7" {
		t.Fatalf("Scan without a reader = %v", got)
	}
}

// A slate mid-update is read when its updater lets go, not served from
// an encoding older than what an earlier Scan showed.
func TestScanWaitsOutAnUpdateInFlight(t *testing.T) {
	c := &countingCodec{}
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: 10, Policy: Interval})
	key := k("U", "x")
	typedUpdate(t, s, key, c)
	s.FlushDirty() // encoding "1"
	typedUpdate(t, s, key, c)
	v, _ := s.GetDecoded(key, c) // object 2, pinned, encoding still "1"
	go func() {
		time.Sleep(time.Millisecond)
		*v.(*int)++
		s.PutDecoded(key, v, c)
	}()
	s.Scan("U", intReader, 1, func(r CacheRow) {
		if r.Raw != nil || r.Vals[0].Num != 3 {
			t.Errorf("Scan handed out %+v, want the object after the update: 3", r)
		}
	})
}
