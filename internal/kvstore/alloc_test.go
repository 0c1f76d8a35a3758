package kvstore

import (
	"fmt"
	"testing"
)

// The store path's allocation budgets: the node builds its rows in its
// own scratch and the engine copies what it keeps, so an overwrite of a
// row no reader was handed costs nothing, a new row one buffer (its key
// and its copy of the value), a batch a fixed few more in the cluster,
// and a read that finds nothing costs nothing.

// TestGetMissAllocBudget: at RF 1, a read of an absent row allocates
// nothing, in the node or in the cluster above it.
func TestGetMissAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	c := testCluster(3, 1)
	for i := 0; i < 100; i++ {
		if _, err := c.Put(fmt.Sprintf("user%d", i), "U1", []byte("v"), 0, One); err != nil {
			t.Fatal(err)
		}
	}
	n := testing.AllocsPerRun(100, func() {
		if _, found, _, err := c.Get("absent", "U1", One); found || err != nil {
			t.Fatalf("found %v err %v", found, err)
		}
	})
	if n != 0 {
		t.Fatalf("an RF 1 Get miss allocated %.1f times, want 0", n)
	}
}

// TestPutBatchAllocBudget: a node overwrites n rows in at most 2
// allocations in all, PutBatch's grouping of them by replica adds a
// fixed few per batch, whatever n is, and PutBatchWith's, in scratch the
// caller keeps, none.
func TestPutBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, rows := range []int{1, 64, 512} {
		entries := make([]BatchEntry, rows)
		for i := range entries {
			entries[i] = BatchEntry{Key: fmt.Sprintf("user%d", i), Column: "U1", Value: []byte(`{"score":1.5}`)}
		}
		node := NewNode("n", NodeConfig{})
		node.PutBatch(entries) // the keys' memtable rows exist from here on
		perNode := testing.AllocsPerRun(50, func() { node.PutBatch(entries) })
		if perNode > 2 {
			t.Errorf("Node.PutBatch of %d overwrites allocated %.0f times, want <= 2", rows, perNode)
		}
		for _, nodes := range []int{1, 3} {
			c := testCluster(nodes, nodes)
			c.PutBatch(entries, One)
			if n := testing.AllocsPerRun(50, func() { c.PutBatch(entries, One) }); n > 6 {
				t.Errorf("Cluster.PutBatch of %d rows at RF %d allocated %.0f times, want <= 6", rows, nodes, n)
			}
			var sc BatchScratch
			c.PutBatchWith(&sc, entries, One)
			n := testing.AllocsPerRun(50, func() { c.PutBatchWith(&sc, entries, One) })
			t.Logf("%d rows at RF %d: %.0f allocations, a node's overwrite %.0f", rows, nodes, n, perNode)
			if n > float64(nodes)*perNode {
				t.Errorf("Cluster.PutBatchWith of %d rows at RF %d allocated %.0f times, want <= its %d nodes' %.0f", rows, nodes, n, nodes, float64(nodes)*perNode)
			}
		}
	}
}

// TestPutDeleteAllocBudget: a single Put that overwrites a row allocates
// nothing, a Put of a new key one buffer, and a Delete nothing.
func TestPutDeleteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	node := NewNode("n", NodeConfig{})
	value := []byte(`{"score":1.5}`)
	keys := make([]string, 200)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%d", i)
	}
	node.Put(keys[0], "U1", value, 0)
	if n := testing.AllocsPerRun(100, func() { node.Put(keys[0], "U1", value, 0) }); n != 0 {
		t.Errorf("an overwriting Put allocated %.1f times, want 0", n)
	}
	i := 0
	if n := testing.AllocsPerRun(len(keys)-2, func() { i++; node.Put(keys[i], "U1", value, 0) }); n > 1 {
		t.Errorf("a Put of a new key allocated %.1f times, want <= 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { node.Delete(keys[0], "U1") }); n != 0 {
		t.Errorf("a Delete allocated %.1f times, want 0", n)
	}
}
