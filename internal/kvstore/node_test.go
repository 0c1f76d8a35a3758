package kvstore

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"muppet/internal/clock"
)

func testNode(t *testing.T, cfg NodeConfig) *Node {
	t.Helper()
	n, err := OpenNode("n0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	return n
}

// onBothFilesystems runs fn once on a Dir-less node (the engine over
// its private MemFS) and once on a node with a data directory.
func onBothFilesystems(t *testing.T, cfg NodeConfig, fn func(t *testing.T, n *Node)) {
	t.Run("memfs", func(t *testing.T) { fn(t, testNode(t, cfg)) })
	t.Run("dir", func(t *testing.T) {
		cfg.Dir = t.TempDir()
		fn(t, testNode(t, cfg))
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	n := testNode(t, NodeConfig{})
	if err := n.Put("user1", "U1", []byte("slate-data"), 0); err != nil {
		t.Fatal(err)
	}
	v, _, found, err := n.Get("user1", "U1")
	if err != nil || !found {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	if string(v) != "slate-data" {
		t.Fatalf("value = %q", v)
	}
}

func TestGetMissingRow(t *testing.T) {
	n := testNode(t, NodeConfig{})
	_, _, found, err := n.Get("nope", "U1")
	if err != nil || found {
		t.Fatalf("found=%v err=%v, want absent", found, err)
	}
}

func TestColumnsAreIndependent(t *testing.T) {
	// Slate S(U,k) lives at row k, column U: two updaters may keep
	// separate slates for the same key (Section 3).
	n := testNode(t, NodeConfig{})
	n.Put("k", "U1", []byte("one"), 0)
	n.Put("k", "U2", []byte("two"), 0)
	v1, _, _, _ := n.Get("k", "U1")
	v2, _, _, _ := n.Get("k", "U2")
	if string(v1) != "one" || string(v2) != "two" {
		t.Fatalf("v1=%q v2=%q", v1, v2)
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("v1"), 0)
	n.Put("k", "U", []byte("v2"), 0)
	v, _, _, _ := n.Get("k", "U")
	if string(v) != "v2" {
		t.Fatalf("value = %q, want v2", v)
	}
}

func TestReadAfterFlush(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("v"), 0)
	n.Flush()
	if s := n.Stats(); s.SSTables != 1 || s.MemtableRows != 0 {
		t.Fatalf("stats after flush: %+v", s)
	}
	v, _, found, _ := n.Get("k", "U")
	if !found || string(v) != "v" {
		t.Fatalf("found=%v v=%q", found, v)
	}
}

func TestMemtableShadowsSSTable(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("old"), 0)
	n.Flush()
	n.Put("k", "U", []byte("new"), 0)
	v, _, _, _ := n.Get("k", "U")
	if string(v) != "new" {
		t.Fatalf("value = %q, want memtable version", v)
	}
}

func TestNewerSSTableShadowsOlder(t *testing.T) {
	n := testNode(t, NodeConfig{CompactionThreshold: 100})
	n.Put("k", "U", []byte("old"), 0)
	n.Flush()
	n.Put("k", "U", []byte("new"), 0)
	n.Flush()
	v, _, _, _ := n.Get("k", "U")
	if string(v) != "new" {
		t.Fatalf("value = %q, want newer sstable version", v)
	}
}

func TestAutomaticFlushOnThreshold(t *testing.T) {
	n := testNode(t, NodeConfig{MemtableFlushBytes: 100, CompactionThreshold: 100})
	for i := 0; i < 20; i++ {
		n.Put(fmt.Sprintf("key-%02d", i), "U", make([]byte, 20), 0)
	}
	if s := n.Stats(); s.Flushes == 0 {
		t.Fatalf("no automatic flush happened: %+v", s)
	}
}

func TestCompactionMergesRuns(t *testing.T) {
	n := testNode(t, NodeConfig{CompactionThreshold: 3})
	n.Put("a", "U", []byte("1"), 0)
	n.Flush()
	n.Put("b", "U", []byte("2"), 0)
	n.Flush()
	n.Put("c", "U", []byte("3"), 0)
	n.Flush() // starts the background compaction at threshold 3
	s := n.Stats()
	for deadline := time.Now().Add(5 * time.Second); s.Compactions == 0 && time.Now().Before(deadline); s = n.Stats() {
		time.Sleep(time.Millisecond)
	}
	if s.Compactions != 1 || s.SSTables != 1 {
		t.Fatalf("stats = %+v, want 1 compaction into 1 sstable", s)
	}
	for _, k := range []string{"a", "b", "c"} {
		if _, _, found, _ := n.Get(k, "U"); !found {
			t.Fatalf("key %s lost by compaction", k)
		}
	}
}

func TestDeleteTombstones(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("v"), 0)
	n.Flush()
	n.Delete("k", "U")
	if _, _, found, _ := n.Get("k", "U"); found {
		t.Fatal("deleted row still readable")
	}
	n.Flush()
	n.Compact()
	if _, _, found, _ := n.Get("k", "U"); found {
		t.Fatal("deleted row resurfaced after compaction")
	}
}

func TestTTLExpiry(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	n := testNode(t, NodeConfig{Clock: fake})
	n.Put("k", "U", []byte("v"), 10*time.Second)
	if _, _, found, _ := n.Get("k", "U"); !found {
		t.Fatal("fresh row should be live")
	}
	fake.Advance(11 * time.Second)
	if _, _, found, _ := n.Get("k", "U"); found {
		t.Fatal("expired row still live")
	}
}

func TestTTLZeroMeansForever(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	n := testNode(t, NodeConfig{Clock: fake})
	n.Put("k", "U", []byte("v"), 0)
	fake.Advance(1000 * time.Hour)
	if _, _, found, _ := n.Get("k", "U"); !found {
		t.Fatal("TTL=0 row expired")
	}
}

// TestCompactionGCsExpiredRows forces a compaction of a tree with one
// sstable: the space TTL-expired slates hold must be reclaimed without
// waiting for an unrelated second flush.
func TestCompactionGCsExpiredRows(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	onBothFilesystems(t, NodeConfig{Clock: fake, CompactionThreshold: 100}, func(t *testing.T, n *Node) {
		for i := 0; i < 10; i++ {
			n.Put(fmt.Sprintf("k%d", i), "U", []byte("v"), 5*time.Second)
		}
		n.Flush()
		fake.Advance(10 * time.Second)
		n.Compact()
		s := n.Stats()
		if s.ExpiredDropped != 10 {
			t.Fatalf("ExpiredDropped = %d, want 10", s.ExpiredDropped)
		}
		if live, _ := n.LiveRows(); live != 0 || s.SSTables != 0 {
			t.Fatalf("LiveRows = %d in %d sstables, want none", live, s.SSTables)
		}
		if _, _, found, _ := n.Get("k3", "U"); found {
			t.Fatal("TTL-expired row resurfaced after compaction")
		}
	})
}

func TestExpiredRowNeverResurfacesAfterRewrite(t *testing.T) {
	// After expiry, a new write must start a fresh row (the paper:
	// "resetting to an empty slate at that time").
	fake := clock.NewFake(time.Unix(1000, 0))
	n := testNode(t, NodeConfig{Clock: fake})
	n.Put("k", "U", []byte("old"), time.Second)
	fake.Advance(2 * time.Second)
	n.Put("k", "U", []byte("new"), time.Second)
	v, _, found, _ := n.Get("k", "U")
	if !found || string(v) != "new" {
		t.Fatalf("found=%v v=%q, want fresh row", found, v)
	}
}

func TestDownNodeRejectsOps(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("v"), 0)
	n.SetDown(true)
	if !n.Down() {
		t.Fatal("node should report down")
	}
	if err := n.Put("k", "U", []byte("v2"), 0); err == nil {
		t.Fatal("Put on down node should fail")
	}
	if _, _, _, err := n.Get("k", "U"); err == nil {
		t.Fatal("Get on down node should fail")
	}
}

// TestCrashKeepsAcknowledgedRows: a node that crashes and comes back
// serves every row it acknowledged, in an sstable or only in the
// memtable — the write-ahead log held each before its put returned.
func TestCrashKeepsAcknowledgedRows(t *testing.T) {
	onBothFilesystems(t, NodeConfig{CompactionThreshold: 100}, func(t *testing.T, n *Node) {
		n.Put("flushed", "U", []byte("v1"), 0)
		n.Flush()
		n.Put("memtable-only", "U", []byte("v2"), 0)
		n.SetDown(true)
		n.SetDown(false)
		for _, k := range []string{"flushed", "memtable-only"} {
			if _, _, found, _ := n.Get(k, "U"); !found {
				t.Fatalf("acknowledged row %q lost on crash", k)
			}
		}
	})
}

func TestBloomFilterSkipsIrrelevantRuns(t *testing.T) {
	n := testNode(t, NodeConfig{CompactionThreshold: 1000})
	for run := 0; run < 5; run++ {
		n.Put(fmt.Sprintf("run%d-key", run), "U", []byte("v"), 0)
		n.Flush()
	}
	// An absent key must walk all runs; the bloom filters should skip
	// (almost) every one without touching the device.
	n.Get("absent-key", "U")
	after := n.Stats()
	if after.BloomSkips < 4 {
		t.Fatalf("bloom filters skipped only %d of 5 runs", after.BloomSkips)
	}
	// A key in the oldest run should skip the four newer runs.
	before := n.Stats().BloomSkips
	if _, _, found, _ := n.Get("run0-key", "U"); !found {
		t.Fatal("run0-key lost")
	}
	if n.Stats().BloomSkips <= before {
		t.Fatal("no bloom skips when reading the oldest run")
	}
}

// TestDeviceChargedForSSTableReads: a read the memtable cannot answer
// probes a segment, and the engine counts the bytes it read off it.
func TestDeviceChargedForSSTableReads(t *testing.T) {
	n := testNode(t, NodeConfig{CompactionThreshold: 100})
	n.Put("k", "U", []byte("v"), 0)
	n.Flush()
	before := n.eng.Stats()
	if _, _, found, _ := n.Get("k", "U"); !found {
		t.Fatal("flushed row lost")
	}
	after := n.eng.Stats()
	if after.SegmentProbes != before.SegmentProbes+1 || after.BytesRead <= before.BytesRead {
		t.Fatalf("segment read: probes %d -> %d, bytes read %d -> %d",
			before.SegmentProbes, after.SegmentProbes, before.BytesRead, after.BytesRead)
	}
}

// TestMemtableReadIsFree: a read the memtable answers probes no segment
// and reads no byte.
func TestMemtableReadIsFree(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("k", "U", []byte("v"), 0)
	n.Flush()
	n.Put("k", "U", []byte("v2"), 0)
	before := n.eng.Stats()
	if v, _, _, _ := n.Get("k", "U"); string(v) != "v2" {
		t.Fatalf("memtable read = %q, want v2", v)
	}
	after := n.eng.Stats()
	if after.ReadsFromMem != before.ReadsFromMem+1 || after.SegmentProbes != before.SegmentProbes ||
		after.BytesRead != before.BytesRead {
		t.Fatalf("memtable read touched a segment: %+v -> %+v", before, after)
	}
}

func TestScanFiltersByColumn(t *testing.T) {
	n := testNode(t, NodeConfig{})
	n.Put("a", "U1", []byte("1"), 0)
	n.Put("b", "U1", []byte("2"), 0)
	n.Put("c", "U2", []byte("3"), 0)
	n.Flush()
	got := map[string]string{}
	n.Scan("U1", func(k string, v []byte) { got[k] = string(v) })
	if len(got) != 2 || got["a"] != "1" || got["b"] != "2" {
		t.Fatalf("scan = %v", got)
	}
}

func TestPropertyNodeMatchesModelMap(t *testing.T) {
	// The node's visible contents always equal a plain map applied the
	// same operations, regardless of flush/compaction interleaving.
	type op struct {
		Key    uint8
		Delete bool
		Flush  bool
	}
	f := func(ops []op) bool {
		n := NewNode("p", NodeConfig{CompactionThreshold: 3})
		model := map[string]string{}
		for i, o := range ops {
			k := fmt.Sprintf("k%d", o.Key%8)
			if o.Delete {
				n.Delete(k, "U")
				delete(model, k)
			} else {
				v := fmt.Sprintf("v%d", i)
				n.Put(k, "U", []byte(v), 0)
				model[k] = v
			}
			if o.Flush {
				n.Flush()
			}
		}
		for j := 0; j < 8; j++ {
			k := fmt.Sprintf("k%d", j)
			v, _, found, _ := n.Get(k, "U")
			want, ok := model[k]
			if found != ok || (found && string(v) != want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPutCopiesValue(t *testing.T) {
	n := testNode(t, NodeConfig{})
	buf := []byte("original")
	n.Put("k", "U", buf, 0)
	buf[0] = 'X'
	v, _, _, _ := n.Get("k", "U")
	if string(v) != "original" {
		t.Fatalf("stored value aliases caller buffer: %q", v)
	}
}

// TestUnclosedNodesHoldNoGoroutine: tests, experiments and examples
// build Dir-less stores by the hundred and close none of them, so a
// node (and the engine it owns) must park no goroutine.
func TestUnclosedNodesHoldNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		NewNode("n", NodeConfig{}).Put("k", "U", []byte("v"), 0)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 1000 unclosed Dir-less nodes, %d after", before, after)
	}
}

// A scan's callback runs outside the node's and the engine's locks: it
// may read and write the node it is scanning (this self-deadlocked when
// the locks were held across it) and still sees the snapshot taken at
// the call, not its own writes.
func TestScanCallbackMayUseTheNode(t *testing.T) {
	n := testNode(t, NodeConfig{})
	for i := 0; i < 3; i++ {
		n.Put(fmt.Sprintf("k%d", i), "U1", []byte("old"), 0)
	}
	n.Flush() // k0..k2 in a segment, k3..k5 in the memtable
	for i := 3; i < 6; i++ {
		n.Put(fmt.Sprintf("k%d", i), "U1", []byte("old"), 0)
	}
	done := make(chan string, 1)
	go func() {
		var got string
		err := n.ScanUntil("U1", func(k string, v []byte) bool {
			got += k + "=" + string(v) + " "
			if cur, _, ok, err := n.Get(k, "U1"); err != nil || !ok || string(cur) != "old" {
				t.Errorf("Get(%s) inside scan = %q, %v, %v", k, cur, ok, err)
			}
			if err := n.Put(k, "U1", []byte("new"), 0); err != nil {
				t.Errorf("Put(%s) inside scan: %v", k, err)
			}
			if err := n.Put(k+"+", "U1", []byte("added"), 0); err != nil {
				t.Errorf("Put(%s+) inside scan: %v", k, err)
			}
			return true
		})
		if err != nil {
			t.Errorf("ScanUntil: %v", err)
		}
		done <- got
	}()
	select {
	case got := <-done:
		if want := "k0=old k1=old k2=old k3=old k4=old k5=old "; got != want {
			t.Fatalf("scan saw %q, want the snapshot at the call %q", got, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a scan callback using its own node deadlocked")
	}
	if v, _, ok, _ := n.Get("k4+", "U1"); !ok || string(v) != "added" {
		t.Fatalf("write made inside the scan is missing: %q, %v", v, ok)
	}
}

// LiveRows counts live rows with a full scan outside the node lock; run
// with Stats beside PutBatch (under -race in CI) it must stay race-free
// and count at least every row acknowledged before it was called.
func TestStatsBesidePutBatch(t *testing.T) {
	n := testNode(t, NodeConfig{MemtableFlushBytes: 2 << 10, CompactionThreshold: 3})
	const batches = 200
	var acked atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for b := 0; b < batches; b++ {
			entries := make([]BatchEntry, 5)
			for i := range entries {
				entries[i] = BatchEntry{Key: fmt.Sprintf("k%03d-%d", b, i), Column: "U", Value: []byte("slate")}
			}
			if err := n.PutBatch(entries); err != nil {
				t.Errorf("PutBatch: %v", err)
				return
			}
			acked.Add(int64(len(entries)))
		}
	}()
	for stopped := false; !stopped; {
		select {
		case <-done:
			stopped = true
		default:
		}
		before := acked.Load()
		n.Stats()
		if live, err := n.LiveRows(); int64(live) < before || err != nil {
			t.Errorf("LiveRows counted %d live rows (%v), %d were acknowledged before it ran", live, err, before)
		}
	}
	if live, _ := n.LiveRows(); live != batches*5 || n.Stats().Flushes == 0 {
		t.Fatalf("final stats %+v, %d live rows; want %d live rows over flushed sstables", n.Stats(), live, batches*5)
	}
}

// A scan the engine cannot complete is an error, never a shorter scan.
func TestScanReportsEngineFailure(t *testing.T) {
	c, err := OpenCluster(ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("a", "U1", []byte("1"), 0, One); err != nil {
		t.Fatal(err)
	}
	c.Close()
	rows := 0
	if err := c.ScanUntil("U1", func(string, []byte) bool { rows++; return true }); err == nil {
		t.Fatalf("scan of a closed store returned %d rows and no error", rows)
	}
}
