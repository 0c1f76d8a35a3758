package kvstore

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestNodePutBatchWritesAllRows(t *testing.T) {
	n := NewNode("n0", NodeConfig{})
	entries := []BatchEntry{
		{Key: "a", Column: "U", Value: []byte("1")},
		{Key: "b", Column: "U", Value: []byte("2")},
		{Key: "c", Column: "V", Value: []byte("3"), TTL: time.Hour},
	}
	if err := n.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		v, _, found, err := n.Get(e.Key, e.Column)
		if err != nil || !found || string(v) != string(e.Value) {
			t.Fatalf("%s/%s = %q, %v, %v", e.Key, e.Column, v, found, err)
		}
	}
}

func TestNodePutBatchDown(t *testing.T) {
	n := NewNode("n0", NodeConfig{})
	n.SetDown(true)
	err := n.PutBatch([]BatchEntry{{Key: "a", Column: "U", Value: []byte("1")}})
	var down ErrNodeDown
	if !errors.As(err, &down) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
}

// TestNodePutBatchAmortizesSeeks: one batch of 100 rows is one WAL
// record and one fsync; 100 singleton puts are 100 of each. The fsync
// is the per-commit device round trip that group commit amortizes.
func TestNodePutBatchAmortizesSeeks(t *testing.T) {
	batched := testNode(t, NodeConfig{})
	var entries []BatchEntry
	for i := 0; i < 100; i++ {
		entries = append(entries, BatchEntry{Key: fmt.Sprintf("k%d", i), Column: "U", Value: []byte("v")})
	}
	before := batched.eng.Stats().Fsyncs
	if err := batched.PutBatch(entries); err != nil {
		t.Fatal(err)
	}
	if got := batched.eng.Stats().Fsyncs - before; got != 1 {
		t.Fatalf("100-row batch issued %d fsyncs, want 1", got)
	}
	single := testNode(t, NodeConfig{})
	before = single.eng.Stats().Fsyncs
	for _, e := range entries {
		if err := single.Put(e.Key, e.Column, e.Value, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := single.eng.Stats().Fsyncs - before; got != 100 {
		t.Fatalf("100 singleton puts issued %d fsyncs, want 100", got)
	}
}

func TestClusterPutBatchReadBack(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 2})
	var entries []BatchEntry
	for i := 0; i < 50; i++ {
		entries = append(entries, BatchEntry{Key: fmt.Sprintf("row%d", i), Column: "U", Value: []byte(fmt.Sprintf("v%d", i))})
	}
	if _, err := c.PutBatch(entries, Quorum); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		v, found, _, err := c.Get(fmt.Sprintf("row%d", i), "U", Quorum)
		if err != nil || !found || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("row%d = %q, %v, %v", i, v, found, err)
		}
	}
}

func TestClusterPutBatchEmpty(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	if lat, err := c.PutBatch(nil, All); err != nil || lat != 0 {
		t.Fatalf("empty batch = %v, %v", lat, err)
	}
}

func TestClusterPutBatchUnavailable(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	for _, name := range c.Nodes() {
		c.KillNode(name)
	}
	_, err := c.PutBatch([]BatchEntry{{Key: "a", Column: "U", Value: []byte("1")}}, Quorum)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
}

func TestClusterPutBatchTolerableFailure(t *testing.T) {
	c := NewCluster(ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	c.KillNode(c.Nodes()[0])
	// RF=3 with one dead node still satisfies QUORUM (2 acks).
	if _, err := c.PutBatch([]BatchEntry{{Key: "a", Column: "U", Value: []byte("1")}}, Quorum); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PutBatch([]BatchEntry{{Key: "a", Column: "U", Value: []byte("1")}}, All); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("ALL with dead replica = %v, want ErrUnavailable", err)
	}
}
