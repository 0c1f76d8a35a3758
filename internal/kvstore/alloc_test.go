package kvstore

import (
	"fmt"
	"testing"
)

// The store path's allocation budgets: a stored row costs one buffer
// (its key and its copy of the value), a batch a fixed few more, and a
// read that finds nothing costs nothing.

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

// TestPutBatchAllocBudget: a node stores n rows in at most n + 2
// allocations, and the cluster's grouping of them by replica adds a
// fixed few per batch, whatever n is.
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
		node.PutBatch(entries) // the keys' memtable slots exist from here on
		if n := testing.AllocsPerRun(50, func() { node.PutBatch(entries) }); n > float64(rows+2) {
			t.Errorf("Node.PutBatch of %d rows allocated %.0f times, want <= %d", rows, n, rows+2)
		}
		c := testCluster(1, 1)
		c.PutBatch(entries, One)
		if n := testing.AllocsPerRun(50, func() { c.PutBatch(entries, One) }); n > float64(rows+6) {
			t.Errorf("Cluster.PutBatch of %d rows allocated %.0f times, want <= %d", rows, n, rows+6)
		}
	}
}
