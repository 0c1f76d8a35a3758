package muppet_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"testing"

	"muppet"
	"muppet/internal/core"
)

// scoreSlate is a typed slate whose encoding gains digits over its
// first updates, as a reputation score does.
type scoreSlate struct {
	N     int     `json:"n"`
	Score float64 `json:"score"`
}

func scoreApp() *muppet.App {
	u := muppet.Update[scoreSlate]("U", func(_ muppet.Emitter, _ muppet.Event, s *scoreSlate) {
		s.N++
		s.Score += 1 / float64(s.N+2)
	})
	return muppet.NewApp("score").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// TestEvictingCacheArenaMatchesReference runs Zipf-keyed updates of a
// typed slate through a cache far smaller than the key set, saving on
// eviction into a durable store: new slates are entry blocks, loaded
// ones copies of store rows carved from memtable chunks, and the chunks
// are retired with each memtable flush. The slates must equal the
// reference executor's. Once the store has flushed and compacted, a
// chunk still alive is one a resident slate keeps: the live heap must
// stay within 10 % of the 5.83 MiB this test kept before entries were
// blocks and rows carved (amd64, Go 1.24). The heap's in-use spans are
// logged, not bounded: their unused part alone moves 12 % between runs
// of one build.
func TestEvictingCacheArenaMatchesReference(t *testing.T) {
	const liveBefore = 5.83
	events := 100_000
	if raceEnabled {
		events = 20_000 // the race detector's run checks the slates only
	}
	rng := rand.New(rand.NewSource(5))
	zipf := rand.NewZipf(rng, 1.1, 1, 1<<16)
	evs := make([]muppet.Event, events)
	for i := range evs {
		evs[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("user%05d", zipf.Uint64())}
	}
	ref := core.NewReference(scoreApp())
	if err := ref.Process(evs); err != nil {
		t.Fatal(err)
	}
	want := ref.Slates("U")
	ref = nil
	store, err := muppet.OpenStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1, Dir: t.TempDir(), MemtableFlushBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng, err := muppet.NewEngine(scoreApp(), muppet.Config{
		Machines: 1, WorkersPerFunction: 1, ThreadsPerMachine: 2,
		Store: store, StoreLevel: muppet.One, CacheCapacity: 512,
		FlushPolicy: muppet.FlushOnEvict, QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for i := 0; i < len(evs); i += 4096 {
		if _, err := eng.IngestBatch(evs[i:min(i+4096, len(evs))]); err != nil {
			t.Fatal(err)
		}
		eng.Drain()
	}
	// Retire the memtable and merge the segments: a chunk still in use
	// after that is one a resident slate keeps alive.
	if err := store.Cluster().FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := store.Cluster().CompactAll(); err != nil {
		t.Fatal(err)
	}
	evs = nil
	live, inuse := heapBytes()
	if len(want) < 4*512 {
		t.Fatalf("%d keys: too few to evict", len(want))
	}
	for k, w := range want {
		if got := eng.Slate("U", k); string(got) != string(w) {
			t.Fatalf("slate %s = %s, reference %s", k, got, w)
		}
	}
	t.Logf("%d keys, live heap %.2f MiB, in use %.2f MiB", len(want), live, inuse)
	if !raceEnabled && live > 1.1*liveBefore {
		t.Fatalf("live heap %.2f MiB, want <= %.2f", live, 1.1*liveBefore)
	}
}

// heapBytes reads the heap after a collection, in MiB: the live
// objects and the in-use spans they occupy.
func heapBytes() (live, inuse float64) {
	runtime.GC()
	m := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	metrics.Read(m)
	live = float64(m[0].Value.Uint64()) / (1 << 20)
	return live, live + float64(m[1].Value.Uint64())/(1<<20)
}
