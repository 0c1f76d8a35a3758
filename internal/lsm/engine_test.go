package lsm

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"muppet/internal/clock"
)

var t0 = time.Unix(1_700_000_000, 0)

func testOptions(fs FS, ck clock.Clock) Options {
	return Options{
		MemtableFlushBytes:  1 << 20,
		CompactionThreshold: 4,
		IndexEvery:          4, // small stride so index paths are exercised
		FS:                  fs,
		Clock:               ck,
		DisableAutoCompact:  true, // tests drive compaction explicitly
	}
}

func mustOpen(t *testing.T, fs FS, ck clock.Clock) *Engine {
	t.Helper()
	e, err := Open("/db", testOptions(fs, ck))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return e
}

func put(t *testing.T, e *Engine, ck clock.Clock, key, val string) {
	t.Helper()
	_, err := e.Put([]Row{{Key: key, Value: []byte(val), WriteTime: ck.Now()}})
	if err != nil {
		t.Fatalf("Put(%q): %v", key, err)
	}
}

func del(t *testing.T, e *Engine, ck clock.Clock, key string) {
	t.Helper()
	_, err := e.Put([]Row{{Key: key, WriteTime: ck.Now(), Tombstone: true}})
	if err != nil {
		t.Fatalf("Delete(%q): %v", key, err)
	}
}

// visible resolves tombstones and TTL the way callers are meant to.
func visible(t *testing.T, e *Engine, ck clock.Clock, key string) (string, bool) {
	t.Helper()
	r, ok, _, err := e.Get(key)
	if err != nil {
		t.Fatalf("Get(%q): %v", key, err)
	}
	if !ok || r.Deleted(ck.Now()) {
		return "", false
	}
	return string(r.Value), true
}

func TestPutGetAcrossFlushAndCompact(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	for i := 0; i < 100; i++ {
		put(t, e, ck, fmt.Sprintf("key-%03d", i), fmt.Sprintf("v%d", i))
		if i%25 == 24 {
			if _, err := e.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
		}
	}
	// Overwrites land in newer locations (memtable and later segments)
	// and must win over segment copies.
	put(t, e, ck, "key-000", "updated")

	check := func(label string) {
		t.Helper()
		for i := 1; i < 100; i++ {
			k := fmt.Sprintf("key-%03d", i)
			if v, ok := visible(t, e, ck, k); !ok || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s: %s = %q, %v; want v%d", label, k, v, ok, i)
			}
		}
		if v, ok := visible(t, e, ck, "key-000"); !ok || v != "updated" {
			t.Fatalf("%s: overwrite lost: %q, %v", label, v, ok)
		}
		if _, ok := visible(t, e, ck, "no-such-key"); ok {
			t.Fatalf("%s: phantom key", label)
		}
	}
	check("before compact")

	if _, _, err := e.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := e.Stats().Segments; got != 1 {
		t.Fatalf("after compact: %d segments, want 1", got)
	}
	check("after compact")
}

func TestTombstonesAndTTL(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	put(t, e, ck, "gone", "x")
	put(t, e, ck, "stays", "y")
	if _, err := e.Put([]Row{{Key: "fades", Value: []byte("z"), WriteTime: ck.Now(), TTL: time.Minute}}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	del(t, e, ck, "gone") // tombstone in memtable shadows segment copy

	if _, ok := visible(t, e, ck, "gone"); ok {
		t.Fatal("tombstone did not shadow segment row")
	}
	if v, ok := visible(t, e, ck, "fades"); !ok || v != "z" {
		t.Fatal("TTL row should still be visible")
	}
	ck.Advance(2 * time.Minute)
	if _, ok := visible(t, e, ck, "fades"); ok {
		t.Fatal("TTL row should have expired")
	}
	if v, ok := visible(t, e, ck, "stays"); !ok || v != "y" {
		t.Fatal("unrelated row affected")
	}

	// Compaction physically drops both the tombstoned and expired rows.
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	n, err := e.LiveRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("LiveRows = %d after compaction, want 1", n)
	}
	if e.Stats().ExpiredDropped == 0 {
		t.Fatal("ExpiredDropped not counted")
	}
}

func TestScanSortedAndLive(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	keys := []string{"delta", "alpha", "echo", "charlie", "bravo"}
	for i, k := range keys {
		put(t, e, ck, k, k)
		if i == 2 {
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	del(t, e, ck, "charlie")

	var got []string
	if err := e.Scan(func(r Row) bool { got = append(got, r.Key); return true }); err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha", "bravo", "delta", "echo"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("Scan order = %v, want %v", got, want)
	}
	if !sort.StringsAreSorted(got) {
		t.Fatalf("Scan not sorted: %v", got)
	}

	// Early stop.
	got = got[:0]
	e.Scan(func(r Row) bool { got = append(got, r.Key); return len(got) < 2 })
	if len(got) != 2 {
		t.Fatalf("early stop scanned %d rows", len(got))
	}
}

func TestReopenRecoversMemtableAndSegments(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)

	put(t, e, ck, "flushed", "f")
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	put(t, e, ck, "walonly", "w") // never flushed: lives in WAL only
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	e = mustOpen(t, fs, ck)
	defer e.Close()
	for k, want := range map[string]string{"flushed": "f", "walonly": "w"} {
		if v, ok := visible(t, e, ck, k); !ok || v != want {
			t.Fatalf("after reopen: %s = %q, %v; want %q", k, v, ok, want)
		}
	}
}

func TestSizeTriggeredFlush(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	opt := testOptions(fs, ck)
	opt.MemtableFlushBytes = 1 << 10
	e, err := Open("/db", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	big := strings.Repeat("x", 600)
	put(t, e, ck, "a", big)
	if e.Stats().Flushes != 0 {
		t.Fatal("flushed too early")
	}
	put(t, e, ck, "b", big)
	s := e.Stats()
	if s.Flushes != 1 || s.Segments != 1 || s.MemtableRows != 0 {
		t.Fatalf("size trigger: %+v", s)
	}
}

func TestAutoCompaction(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	opt := testOptions(fs, ck)
	opt.DisableAutoCompact = false
	opt.CompactionThreshold = 3
	e, err := Open("/db", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for i := 0; i < 3; i++ {
		put(t, e, ck, fmt.Sprintf("k%d", i), "v")
		if _, err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compaction never ran")
		}
		time.Sleep(time.Millisecond)
	}
	if got := e.Stats().Segments; got != 1 {
		t.Fatalf("segments after auto compact = %d, want 1", got)
	}
	for i := 0; i < 3; i++ {
		if v, ok := visible(t, e, ck, fmt.Sprintf("k%d", i)); !ok || v != "v" {
			t.Fatalf("k%d lost in auto compaction", i)
		}
	}

	// Below the threshold a flush starts nothing: only an explicit
	// Compact rewrites a tree this small. Close waits for any run.
	put(t, e, ck, "k3", "v")
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.Close()
	if s := e.Stats(); s.Compactions != 1 {
		t.Fatalf("%d compactions after a flush to 2 segments at threshold 3, want 1", s.Compactions)
	}
}

func TestBloomSkipsCounted(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	for i := 0; i < 50; i++ {
		put(t, e, ck, fmt.Sprintf("present-%d", i), "v")
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		e.Get(fmt.Sprintf("absent-%d", i))
	}
	s := e.Stats()
	if s.BloomSkips == 0 {
		t.Fatalf("bloom filter never skipped a probe: %+v", s)
	}
	if s.BloomSkips+s.SegmentProbes != 200 {
		t.Fatalf("skips %d + probes %d != 200 absent gets", s.BloomSkips, s.SegmentProbes)
	}
}

func TestPutBatchAtomicVisibility(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	rows := make([]Row, 10)
	for i := range rows {
		rows[i] = Row{Key: fmt.Sprintf("b%d", i), Value: []byte("v"), WriteTime: ck.Now()}
	}
	if _, err := e.Put(rows); err != nil {
		t.Fatal(err)
	}
	n, err := e.LiveRows()
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("batch put visible rows = %d, want 10", n)
	}
	if e.Stats().Fsyncs > 8 {
		// One WAL sync for the batch plus Open's bookkeeping — group
		// commit must not sync per row.
		t.Fatalf("batch of 10 cost %d fsyncs", e.Stats().Fsyncs)
	}
}

func TestLargeValuesRoundTrip(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	defer e.Close()

	// Compressible and incompressible payloads, spanning index strides.
	vals := map[string]string{
		"zeros": strings.Repeat("\x00", 100_000),
		"text":  strings.Repeat("the quick brown fox ", 5_000),
	}
	rnd := make([]byte, 100_000)
	x := uint32(2463534242)
	for i := range rnd {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		rnd[i] = byte(x)
	}
	vals["random"] = string(rnd)
	for k, v := range vals {
		put(t, e, ck, k, v)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for k, want := range vals {
		if v, ok := visible(t, e, ck, k); !ok || v != want {
			t.Fatalf("%s: large value corrupted (ok=%v, len=%d want %d)", k, ok, len(v), len(want))
		}
	}
}

func TestOSFSEndToEnd(t *testing.T) {
	dir := t.TempDir()
	ck := clock.NewFake(t0)
	opt := testOptions(OSFS{}, ck)
	e, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		put(t, e, ck, fmt.Sprintf("k%02d", i), fmt.Sprintf("v%d", i))
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	put(t, e, ck, "walrow", "w")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e, err = Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 20; i++ {
		if v, ok := visible(t, e, ck, fmt.Sprintf("k%02d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("OSFS reopen lost k%02d", i)
		}
	}
	if v, ok := visible(t, e, ck, "walrow"); !ok || v != "w" {
		t.Fatal("OSFS reopen lost WAL-only row")
	}
}

func TestCloseThenUseErrors(t *testing.T) {
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	e := mustOpen(t, fs, ck)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := e.Put([]Row{{Key: "k"}}); err == nil {
		t.Fatal("Put after Close succeeded")
	}
	if _, _, _, err := e.Get("k"); err == nil {
		t.Fatal("Get after Close succeeded")
	}
}
