package muppet_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"muppet"
	"muppet/internal/core"
)

// TestEvictingCacheUnderIntervalFlushMatchesReference is the
// engine-level regression test for the flusher marking a slate clean
// before its write was durable (ROADMAP Fix first 2): with a cache far
// smaller than the key set, a flusher that is always running and a
// durable store whose multi-puts wait on fsync, an eviction regularly
// lands between a flush batch leaving the cache and reaching the store.
// At the parent commit the reload then read the older store row and the
// updates in between vanished; the slates must equal the reference
// executor's — the fold of exactly the accepted events — on both
// engine versions.
func TestEvictingCacheUnderIntervalFlushMatchesReference(t *testing.T) {
	const keys, events = 48, 12_000
	rng := rand.New(rand.NewSource(1))
	evs := make([]muppet.Event, events)
	for i := range evs {
		evs[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", rng.Intn(keys))}
	}
	ref := core.NewReference(keyCountApp())
	if err := ref.Process(evs); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{{"engine1", muppet.EngineV1}, {"engine2", muppet.EngineV2}} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := muppet.OpenStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			eng, err := muppet.NewEngine(keyCountApp(), muppet.Config{
				Engine: tc.version, Machines: 1, WorkersPerFunction: 1, ThreadsPerMachine: 2,
				Store: store, StoreLevel: muppet.One, CacheCapacity: 4,
				FlushPolicy: muppet.FlushInterval, FlushEvery: 200 * time.Microsecond,
				QueueCapacity: 1 << 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			for i := 0; i < len(evs); i += 256 {
				if _, err := eng.IngestBatch(evs[i:min(i+256, len(evs))]); err != nil {
					t.Fatal(err)
				}
			}
			eng.Drain()
			short := 0
			for _, k := range ref.SlateKeys("U") {
				if got, want := string(eng.Slate("U", k)), string(ref.Slate("U", k)); got != want {
					short++
					t.Errorf("slate %s = %s, reference %s", k, got, want)
				}
			}
			if short > 0 {
				t.Fatalf("%d of %d slates diverge from the reference", short, keys)
			}
		})
	}
}
