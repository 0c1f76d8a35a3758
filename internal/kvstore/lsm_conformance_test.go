package kvstore

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"muppet/internal/clock"
)

// TestInMemoryAndDurableConformance drives the identical operation
// sequence through a Dir-less node (the engine over its private MemFS)
// and a node with a data directory (the engine over the OS filesystem)
// and asserts both expose the same visibility rules: newest write
// wins, tombstones hide rows, TTL expiry applies, and scans agree on
// the live set and yield it in ascending key order on both.
func TestInMemoryAndDurableConformance(t *testing.T) {
	ck := clock.NewFake(time.Unix(1_700_000_000, 0))
	mem := NewNode("mem", NodeConfig{Clock: ck})
	dur, err := OpenNode("dur", NodeConfig{Clock: ck, Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("OpenNode durable: %v", err)
	}
	defer dur.Close()
	nodes := []*Node{mem, dur}

	step := func(op string, fn func(n *Node) error) {
		t.Helper()
		for _, n := range nodes {
			if err := fn(n); err != nil {
				t.Fatalf("%s on %s: %v", op, n.Name(), err)
			}
		}
	}

	// A workload exercising overwrites, tombstones, TTLs, and flushes
	// at different points in each node's lifetime.
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("slate-%02d", i), fmt.Sprintf("v%d", i)
		step("put", func(n *Node) error { err := n.Put(k, "state", []byte(v), 0); return err })
	}
	step("flush", func(n *Node) error { return n.Flush() })
	step("overwrite", func(n *Node) error { err := n.Put("slate-00", "state", []byte("rewritten"), 0); return err })
	step("delete", func(n *Node) error { err := n.Delete("slate-01", "state"); return err })
	step("ttl put", func(n *Node) error {
		err := n.Put("ephemeral", "state", []byte("temp"), time.Minute)
		return err
	})
	step("other column", func(n *Node) error { err := n.Put("slate-02", "meta", []byte("m"), 0); return err })

	compare := func(label string) {
		t.Helper()
		for i := 0; i < 40; i++ {
			k := fmt.Sprintf("slate-%02d", i)
			mv, _, mok, merr := mem.Get(k, "state")
			dv, _, dok, derr := dur.Get(k, "state")
			if merr != nil || derr != nil {
				t.Fatalf("%s: Get(%s): mem err %v, dur err %v", label, k, merr, derr)
			}
			if mok != dok || string(mv) != string(dv) {
				t.Fatalf("%s: Get(%s) diverged: mem (%q,%v) vs durable (%q,%v)", label, k, mv, mok, dv, dok)
			}
		}
		_, _, mok, _ := mem.Get("ephemeral", "state")
		_, _, dok, _ := dur.Get("ephemeral", "state")
		if mok != dok {
			t.Fatalf("%s: TTL visibility diverged: mem %v vs durable %v", label, mok, dok)
		}

		memSeen := map[string]string{}
		var memOrder []string
		mem.Scan("state", func(k string, v []byte) {
			memSeen[k] = string(v)
			memOrder = append(memOrder, k)
		})
		durSeen := map[string]string{}
		var durOrder []string
		dur.Scan("state", func(k string, v []byte) {
			durSeen[k] = string(v)
			durOrder = append(durOrder, k)
		})
		if len(memSeen) != len(durSeen) {
			t.Fatalf("%s: scan live sets differ: mem %d rows, durable %d rows", label, len(memSeen), len(durSeen))
		}
		for k, v := range memSeen {
			if durSeen[k] != v {
				t.Fatalf("%s: scan diverged at %s: mem %q vs durable %q", label, k, v, durSeen[k])
			}
		}
		if !sort.StringsAreSorted(durOrder) {
			t.Fatalf("%s: durable scan not in sorted key order: %v", label, durOrder)
		}
		if !sort.StringsAreSorted(memOrder) {
			t.Fatalf("%s: in-memory scan not in sorted key order: %v", label, memOrder)
		}
	}

	compare("before expiry")
	ck.Advance(2 * time.Minute) // expire "ephemeral" on both
	compare("after expiry")
	step("flush again", func(n *Node) error { return n.Flush() })
	step("compact", func(n *Node) error { return n.Compact() })
	compare("after compaction")

	ms, ds := mem.Stats(), dur.Stats()
	mLive, mErr := mem.LiveRows()
	dLive, dErr := dur.LiveRows()
	if mLive != dLive || mErr != nil || dErr != nil {
		t.Fatalf("LiveRows diverged: mem %d (%v) vs durable %d (%v)", mLive, mErr, dLive, dErr)
	}
	if !ds.Durable || ms.Durable {
		t.Fatalf("Durable flag wrong: mem %v, durable %v", ms.Durable, ds.Durable)
	}
	if ds.Fsyncs == 0 || ds.DiskBytesWritten == 0 {
		t.Fatalf("durable node reported no real I/O: %+v", ds)
	}
}

// TestDurableNodeReopen proves a node restarted on the same directory
// serves every acknowledged row, flushed or not.
func TestDurableNodeReopen(t *testing.T) {
	dir := t.TempDir()
	ck := clock.NewFake(time.Unix(1_700_000_000, 0))
	n, err := OpenNode("n", NodeConfig{Clock: ck, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := n.Put(fmt.Sprintf("k%d", i), "state", []byte("v"), 0); err != nil {
			t.Fatal(err)
		}
	}
	n.Flush()
	if err := n.Put("unflushed", "state", []byte("wal-only"), 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	n, err = OpenNode("n", NodeConfig{Clock: ck, Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer n.Close()
	for i := 0; i < 10; i++ {
		if _, _, ok, _ := n.Get(fmt.Sprintf("k%d", i), "state"); !ok {
			t.Fatalf("k%d lost across restart", i)
		}
	}
	v, _, ok, _ := n.Get("unflushed", "state")
	if !ok || string(v) != "wal-only" {
		t.Fatal("WAL-only row lost across restart")
	}
}

// TestDurableClusterReopen proves a whole cluster restarted on the
// same directory tree recovers, and that SetDown/SetDown(false) on a
// node keeps its memtable (the WAL already owns those rows).
func TestDurableClusterReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := ClusterConfig{Nodes: 3, ReplicationFactor: 2, Dir: dir}
	c, err := OpenCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := c.Put(fmt.Sprintf("s%02d", i), "state", []byte("v"), 0, Quorum); err != nil {
			t.Fatal(err)
		}
	}

	// Kill/revive loses no data at all: the revived node still answers
	// from its WAL-backed memtable.
	victim := c.Nodes()[0]
	before := c.Node(victim).Stats().MemtableRows
	c.KillNode(victim)
	c.ReviveNode(victim)
	if after := c.Node(victim).Stats().MemtableRows; after != before {
		t.Fatalf("durable revive lost memtable rows: %d -> %d", before, after)
	}

	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c, err = OpenCluster(cfg)
	if err != nil {
		t.Fatalf("reopen cluster: %v", err)
	}
	defer c.Close()
	for i := 0; i < 20; i++ {
		v, ok, _, err := c.Get(fmt.Sprintf("s%02d", i), "state", Quorum)
		if err != nil || !ok || string(v) != "v" {
			t.Fatalf("s%02d lost across cluster restart (ok=%v, err=%v)", i, ok, err)
		}
	}
}
