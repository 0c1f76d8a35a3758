// Error-path tests for the kvstore adapter: corrupt stored values,
// unavailable clusters, batch failures, and TTL expiry — the corners
// the happy-path round-trip tests in cache_test.go do not reach.
package slate

import (
	"bytes"
	"testing"
	"time"

	"muppet/internal/kvstore"
)

func kvHarness(t *testing.T) (*KVStore, *kvstore.Cluster) {
	t.Helper()
	clu := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	return &KVStore{Cluster: clu, Level: kvstore.Quorum}, clu
}

func TestKVStoreLoadCorruptValue(t *testing.T) {
	s, clu := kvHarness(t)
	// A value written outside the adapter (not deflate) must surface a
	// decompression error, not silent data.
	if _, err := clu.Put("Walmart", "U1", []byte("not-deflate"), 0, kvstore.Quorum); err != nil {
		t.Fatal(err)
	}
	_, found, err := s.Load(Key{Updater: "U1", Key: "Walmart"})
	if err == nil {
		t.Fatalf("corrupt load reported no error (found=%v)", found)
	}
}

func TestKVStoreUnavailableCluster(t *testing.T) {
	s, clu := kvHarness(t)
	for _, n := range clu.Nodes() {
		clu.KillNode(n)
	}
	if _, _, err := s.Load(Key{Updater: "U", Key: "k"}); err == nil {
		t.Fatal("load against a dead cluster succeeded")
	}
	err := s.SaveBatch([]BatchRecord{{K: Key{Updater: "U", Key: "k"}, Value: []byte("v")}})
	if err == nil {
		t.Fatal("batch save against a dead cluster succeeded")
	}
}

func TestKVStoreSaveBatchRoundTrip(t *testing.T) {
	s, _ := kvHarness(t)
	recs := []BatchRecord{
		{K: Key{Updater: "U1", Key: "a"}, Value: []byte("1")},
		{K: Key{Updater: "U1", Key: "b"}, Value: []byte("2"), TTL: time.Hour},
		{K: Key{Updater: "U2", Key: "a"}, Value: []byte("3")},
	}
	if err := s.SaveBatch(recs); err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		got, found, err := s.Load(r.K)
		if err != nil || !found || !bytes.Equal(got, r.Value) {
			t.Fatalf("load %v = (%q, %v, %v), want %q", r.K, got, found, err, r.Value)
		}
	}
}

func TestKVStoreTTLExpiry(t *testing.T) {
	s, _ := kvHarness(t)
	k := Key{Updater: "U", Key: "ephemeral"}
	if err := s.SaveBatch([]BatchRecord{{K: k, Value: []byte("v"), TTL: time.Nanosecond}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Millisecond)
	_, found, err := s.Load(k)
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("expired slate still readable")
	}
}
