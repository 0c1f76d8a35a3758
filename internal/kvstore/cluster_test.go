package kvstore

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"muppet/internal/clock"
	"muppet/internal/hashring"
)

func testCluster(nodes, rf int) *Cluster {
	return NewCluster(ClusterConfig{
		Nodes:             nodes,
		ReplicationFactor: rf,
		NetworkRTT:        time.Millisecond,
		RTTJitter:         time.Millisecond,
		Seed:              7,
	})
}

func TestClusterPutGetAllLevels(t *testing.T) {
	for _, level := range []Consistency{One, Quorum, All} {
		c := testCluster(5, 3)
		if _, err := c.Put("k", "U", []byte("v"), 0, level); err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		v, found, _, err := c.Get("k", "U", level)
		if err != nil || !found || string(v) != "v" {
			t.Fatalf("%v: found=%v v=%q err=%v", level, found, v, err)
		}
	}
}

func TestReplicationFactorRespected(t *testing.T) {
	c := testCluster(5, 3)
	c.Put("k", "U", []byte("v"), 0, All)
	holders := 0
	for _, name := range c.Nodes() {
		if _, _, found, _ := c.Node(name).Get("k", "U"); found {
			holders++
		}
	}
	if holders != 3 {
		t.Fatalf("row on %d nodes, want RF=3", holders)
	}
}

func TestQuorumRequiredCounts(t *testing.T) {
	if One.required(3) != 1 || Quorum.required(3) != 2 || All.required(3) != 3 {
		t.Fatal("required counts wrong for rf=3")
	}
	if Quorum.required(5) != 3 || Quorum.required(4) != 3 {
		t.Fatal("majority math wrong")
	}
}

func TestConsistencyString(t *testing.T) {
	if One.String() != "ONE" || Quorum.String() != "QUORUM" || All.String() != "ALL" || Consistency(9).String() != "UNKNOWN" {
		t.Fatal("consistency names wrong")
	}
}

func TestWriteSurvivesMinorityFailureAtQuorum(t *testing.T) {
	c := testCluster(5, 3)
	c.Put("k", "U", []byte("v"), 0, All)
	reps := c.replicas(nil, "k", "U")
	c.KillNode(reps[0])
	v, found, _, err := c.Get("k", "U", Quorum)
	if err != nil || !found || string(v) != "v" {
		t.Fatalf("quorum read after 1 replica down: found=%v err=%v", found, err)
	}
}

func TestAllFailsWithReplicaDown(t *testing.T) {
	c := testCluster(3, 3)
	c.Put("k", "U", []byte("v"), 0, All)
	c.KillNode(c.Nodes()[0])
	if _, err := c.Put("k", "U", []byte("v2"), 0, All); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ALL write with node down = %v, want ErrUnavailable", err)
	}
}

func TestOneSucceedsWithMajorityDown(t *testing.T) {
	c := testCluster(3, 3)
	c.KillNode("node-00")
	c.KillNode("node-01")
	if _, err := c.Put("k", "U", []byte("v"), 0, One); err != nil {
		t.Fatalf("ONE write with 1 live node: %v", err)
	}
	if _, found, _, err := c.Get("k", "U", One); err != nil || !found {
		t.Fatalf("ONE read: found=%v err=%v", found, err)
	}
}

func TestReadYourWritesAtQuorum(t *testing.T) {
	c := testCluster(5, 3)
	for i := 0; i < 20; i++ {
		want := fmt.Sprintf("v%d", i)
		if _, err := c.Put("k", "U", []byte(want), 0, Quorum); err != nil {
			t.Fatal(err)
		}
		v, found, _, err := c.Get("k", "U", Quorum)
		if err != nil || !found || string(v) != want {
			t.Fatalf("iteration %d: got %q, want %q (err=%v)", i, v, want, err)
		}
	}
}

func TestQuorumLatencyOrdering(t *testing.T) {
	// With parallel replica requests, ONE completes at the fastest
	// replica and ALL at the slowest, so mean latency must be
	// ONE <= QUORUM <= ALL.
	c := testCluster(6, 3)
	var one, quorum, all time.Duration
	for i := 0; i < 200; i++ {
		k := fmt.Sprintf("k%d", i)
		l1, err := c.Put(k, "U", []byte("v"), 0, One)
		if err != nil {
			t.Fatal(err)
		}
		l2, err := c.Put(k, "U", []byte("v"), 0, Quorum)
		if err != nil {
			t.Fatal(err)
		}
		l3, err := c.Put(k, "U", []byte("v"), 0, All)
		if err != nil {
			t.Fatal(err)
		}
		one += l1
		quorum += l2
		all += l3
	}
	if !(one <= quorum && quorum <= all) {
		t.Fatalf("latency ordering violated: ONE=%v QUORUM=%v ALL=%v", one, quorum, all)
	}
	if one == all {
		t.Fatal("jitter produced no spread between ONE and ALL")
	}
}

func TestReadRepairHealsStaleReplica(t *testing.T) {
	c := testCluster(5, 3)
	c.Put("k", "U", []byte("v1"), 0, All)
	reps := c.replicas(nil, "k", "U")
	// Take one replica down, write a newer version at quorum, revive.
	c.KillNode(reps[2])
	if _, err := c.Put("k", "U", []byte("v2"), 0, Quorum); err != nil {
		t.Fatal(err)
	}
	c.ReviveNode(reps[2])
	// Repeated quorum reads eventually include the stale replica and
	// repair it.
	for i := 0; i < 10; i++ {
		v, found, _, err := c.Get("k", "U", All)
		if err != nil || !found || string(v) != "v2" {
			t.Fatalf("read %d after repair: %q found=%v err=%v", i, v, found, err)
		}
	}
	v, _, found, _ := c.Node(reps[2]).Get("k", "U")
	if !found || string(v) != "v2" {
		t.Fatalf("stale replica not repaired: %q found=%v", v, found)
	}
}

// TestReadRepairKeepsWriteTimeAndTTL: repair copies the winning row as
// stored, so a row repaired onto the replica that missed its write
// expires with its source, not a TTL after the repair.
func TestReadRepairKeepsWriteTimeAndTTL(t *testing.T) {
	t0 := time.Unix(1_000_000, 0)
	fake := clock.NewFake(t0)
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 3, Clock: fake})
	c.KillNode("node-02")
	if _, err := c.Put("k", "U", []byte("v"), 10*time.Second, Quorum); err != nil {
		t.Fatal(err)
	}
	c.ReviveNode("node-02")
	fake.Advance(5 * time.Second)
	if _, found, _, err := c.Get("k", "U", All); err != nil || !found {
		t.Fatalf("read at 5s: found=%v err=%v", found, err)
	}
	_, row, found, _ := c.Node("node-02").Get("k", "U")
	if !found || !row.WriteTime.Equal(t0) || row.TTL != 10*time.Second {
		t.Fatalf("repaired row: found=%v write time %v ttl %v, want %v and 10s", found, row.WriteTime, row.TTL, t0)
	}
	fake.Advance(6 * time.Second)
	if _, found, _, err := c.Get("k", "U", All); err != nil || found {
		t.Fatalf("read at 11s, past the 10s TTL: found=%v err=%v", found, err)
	}
	fake.Advance(8 * time.Second)
	if _, found, _, err := c.Get("k", "U", Quorum); err != nil || found {
		t.Fatalf("quorum read at 19s: found=%v err=%v", found, err)
	}
}

// TestReadRepairLeavesNewerTombstone: a replica whose version is a
// newer tombstone, flushed to a segment, is not repaired with an older
// live version, which would shadow it from the memtable; and the read
// answers with the tombstone, last write wins, not with the older live
// version the revived replica still serves.
func TestReadRepairLeavesNewerTombstone(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 3, Clock: fake})
	if _, err := c.Put("k", "U", []byte("v"), 0, All); err != nil {
		t.Fatal(err)
	}
	c.KillNode("node-02")
	fake.Advance(time.Second)
	if _, err := c.Delete("k", "U", Quorum); err != nil {
		t.Fatal(err)
	}
	if err := c.FlushAll(); err != nil {
		t.Fatal(err)
	}
	c.ReviveNode("node-02")
	if v, found, _, err := c.Get("k", "U", All); err != nil || found {
		t.Fatalf("read after the quorum delete: %q found=%v err=%v, want absent", v, found, err)
	}
	for _, name := range []string{"node-00", "node-01"} {
		if _, row, found, _ := c.Node(name).Get("k", "U"); found || !row.Tombstone {
			t.Fatalf("%s after repair: found=%v tombstone=%v, want the tombstone", name, found, row.Tombstone)
		}
	}
}

// TestExpiredRowShadowsOlderLiveRow: a newer version that has expired
// reads as absent even where a replica that missed it still serves an
// older live version. An expired row is a deletion with a delay, and
// the newest write wins whether or not it is still live; the read
// repairs it onto the stale replica.
func TestExpiredRowShadowsOlderLiveRow(t *testing.T) {
	fake := clock.NewFake(time.Unix(1_000_000, 0))
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 3, Clock: fake})
	if _, err := c.Put("k", "U", []byte("old"), 0, All); err != nil {
		t.Fatal(err)
	}
	c.KillNode("node-02")
	fake.Advance(time.Second)
	if _, err := c.Put("k", "U", []byte("new"), 5*time.Second, Quorum); err != nil {
		t.Fatal(err)
	}
	c.ReviveNode("node-02")
	fake.Advance(10 * time.Second)
	if v, found, _, err := c.Get("k", "U", All); err != nil || found {
		t.Fatalf("read after expiry: %q found=%v err=%v, want absent, not the older live version", v, found, err)
	}
	if v, _, found, _ := c.Node("node-02").Get("k", "U"); found {
		t.Fatalf("stale replica still serves %q after the read repaired it", v)
	}
}

func TestKillAndReviveNode(t *testing.T) {
	c := testCluster(3, 1)
	c.KillNode("node-01")
	if !c.Node("node-01").Down() {
		t.Fatal("node not down after KillNode")
	}
	c.ReviveNode("node-01")
	if c.Node("node-01").Down() {
		t.Fatal("node still down after ReviveNode")
	}
}

func TestRFClampedToNodeCount(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 2, ReplicationFactor: 5})
	if got := len(c.replicas(nil, "k", "U")); got != 2 {
		t.Fatalf("replica set size %d, want 2", got)
	}
}

func TestClusterScanDeduplicates(t *testing.T) {
	c := testCluster(4, 3)
	c.Put("a", "U", []byte("1"), 0, All)
	c.Put("b", "U", []byte("2"), 0, All)
	seen := map[string]int{}
	c.Scan("U", func(k string, v []byte) { seen[k]++ })
	if len(seen) != 2 || seen["a"] != 1 || seen["b"] != 1 {
		t.Fatalf("scan = %v", seen)
	}
}

// A one-node cluster scans without a dedup set: rows still arrive once
// each, in key order, and an early stop ends the scan at that row.
func TestSingleNodeScanStopsEarly(t *testing.T) {
	c := testCluster(1, 1)
	for _, k := range []string{"d", "b", "a", "c"} {
		c.Put(k, "U", []byte(k), 0, One)
	}
	c.Put("a", "U", []byte("a2"), 0, One)
	c.Put("z", "V", []byte("other column"), 0, One)
	var got []string
	err := c.ScanUntil("U", func(k string, v []byte) bool {
		got = append(got, k+"="+string(v))
		return len(got) < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "a=a2 b=b c=c"; strings.Join(got, " ") != want {
		t.Fatalf("scan = %q, want %q", strings.Join(got, " "), want)
	}
}

func TestTotalStatsAggregates(t *testing.T) {
	c := testCluster(3, 3)
	c.Put("k", "U", []byte("v"), 0, All)
	c.FlushAll()
	s := c.TotalStats()
	if s.Flushes != 3 {
		t.Fatalf("Flushes = %d, want 3 (one per replica)", s.Flushes)
	}
	if live, err := c.LiveRows(); live != 3 || err != nil {
		t.Fatalf("LiveRows = %d, %v; want 3 replicas", live, err)
	}
}

func TestClusterDeleteAtQuorum(t *testing.T) {
	c := testCluster(5, 3)
	c.Put("k", "U", []byte("v"), 0, All)
	if _, err := c.Delete("k", "U", Quorum); err != nil {
		t.Fatal(err)
	}
	if _, found, _, _ := c.Get("k", "U", All); found {
		t.Fatal("row readable after quorum delete")
	}
}

func TestCompactAllShrinksRuns(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 2, ReplicationFactor: 2, Node: NodeConfig{CompactionThreshold: 1000}})
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("k%d", i), "U", []byte("v"), 0, All)
		c.FlushAll()
	}
	if s := c.TotalStats(); s.SSTables != 10 {
		t.Fatalf("SSTables = %d, want 10", s.SSTables)
	}
	c.CompactAll()
	if s := c.TotalStats(); s.SSTables != 2 {
		t.Fatalf("SSTables after compaction = %d, want 2", s.SSTables)
	}
}

// Routing a row hashes the <key, column> pair in place: the replica set
// is exactly the one the composed row key names — placement, and so
// every persisted store, is unchanged — and choosing it allocates
// nothing.
func TestReplicasRouteThePairWithoutAllocating(t *testing.T) {
	for _, rf := range []int{1, 3} {
		c := testCluster(5, rf)
		c.KillNode("node-02") // a disabled node is skipped the same way
		var buf [stackReplicas]string
		for i := 0; i < 200; i++ {
			key, column := fmt.Sprintf("user%d", i), fmt.Sprintf("U%d", i%3)
			got := c.replicas(buf[:0], key, column)
			want := c.ring.AppendN(nil, hashring.Hash(string(appendRowKey(nil, key, column))), rf)
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("rf %d: %s/%s routes to %v, the row key to %v", rf, key, column, got, want)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if len(c.replicas(buf[:0], "user12345", "U1")) != rf {
				t.Fatal("short replica set")
			}
		})
		if allocs != 0 {
			t.Errorf("rf %d: routing a row allocated %.1f times, want 0", rf, allocs)
		}
	}
}

// A node going down or coming back is a visibility change; setting the
// state it already has is not.
func TestVisibilityChangesCountNodeFlips(t *testing.T) {
	c := testCluster(3, 3)
	c.KillNode("node-01")
	c.KillNode("node-01")
	c.ReviveNode("node-01")
	c.Node("node-02").SetDown(false)
	if got := c.VisibilityChanges(); got != 2 {
		t.Fatalf("VisibilityChanges = %d, want 2", got)
	}
}

// Attached counts the engines attached now and every attach ever made;
// a detach lowers only the first, and a second call of it does nothing.
func TestAttachCountsEngines(t *testing.T) {
	c := testCluster(1, 1)
	first := c.Attach()
	second := c.Attach()
	second()
	second()
	if ever, now := c.Attached(); ever != 2 || now != 1 {
		t.Fatalf("Attached = %d ever, %d now; want 2, 1", ever, now)
	}
	first()
	if ever, now := c.Attached(); ever != 2 || now != 0 {
		t.Fatalf("Attached = %d ever, %d now; want 2, 0", ever, now)
	}
}
