package slate

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"muppet/internal/kvstore"
	"muppet/internal/storage"
)

type namedStore struct {
	name string
	s    *Sharded
}

// storesUnderTest builds the stores a comparison benchmark runs over:
// the single-lock baseline (one shard) and two stripe counts.
func storesUnderTest(capacity int, policy FlushPolicy, store func() Store) []namedStore {
	mk := func(name string, shards int) namedStore {
		cfg := ShardedConfig{Shards: shards, Capacity: capacity, Policy: policy}
		if store != nil {
			cfg.Store = store()
		}
		return namedStore{name, NewSharded(cfg)}
	}
	return []namedStore{mk("single-lock", 1), mk("sharded-16", 16), mk("sharded-64", 64)}
}

// parallelism ensures at least 8 concurrent goroutines regardless of
// GOMAXPROCS, the contention level the acceptance benchmarks target.
func parallelism() int {
	p := runtime.GOMAXPROCS(0)
	if p >= 8 {
		return 1
	}
	return (8 + p - 1) / p
}

func benchKeys(n int) []Key {
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = Key{Updater: "U1", Key: fmt.Sprintf("user-%d", i)}
	}
	return keys
}

// BenchmarkStoreUniform: concurrent 50/50 get/put over a uniform key
// space — the shard-friendly workload where striping should win on
// multicore hardware.
func BenchmarkStoreUniform(b *testing.B) {
	keys := benchKeys(10_000)
	for _, impl := range storesUnderTest(20_000, Interval, nil) {
		b.Run(impl.name, func(b *testing.B) {
			for _, key := range keys {
				impl.s.Put(key, []byte("seed"))
			}
			val := []byte(`{"count":42}`)
			b.SetParallelism(parallelism())
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					key := keys[rng.Intn(len(keys))]
					if rng.Intn(2) == 0 {
						impl.s.Put(key, val)
					} else {
						impl.s.Get(key)
					}
				}
			})
		})
	}
}

// BenchmarkStoreHotKeySkew: 90% of operations hammer 16 hot keys —
// the hotspot workload of Section 5. Hot keys collapse onto few shards,
// so this bounds the win striping can claim.
func BenchmarkStoreHotKeySkew(b *testing.B) {
	keys := benchKeys(10_000)
	hot := keys[:16]
	for _, impl := range storesUnderTest(20_000, Interval, nil) {
		b.Run(impl.name, func(b *testing.B) {
			for _, key := range keys {
				impl.s.Put(key, []byte("seed"))
			}
			val := []byte(`{"count":42}`)
			b.SetParallelism(parallelism())
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					var key Key
					if rng.Intn(10) < 9 {
						key = hot[rng.Intn(len(hot))]
					} else {
						key = keys[rng.Intn(len(keys))]
					}
					if rng.Intn(2) == 0 {
						impl.s.Put(key, val)
					} else {
						impl.s.Get(key)
					}
				}
			})
		})
	}
}

// BenchmarkStoreFlushHeavy: concurrent writers race a background
// flusher draining to a real (device-free) kvstore cluster, each drain
// group-committed as multi-puts.
func BenchmarkStoreFlushHeavy(b *testing.B) {
	keys := benchKeys(4_096)
	mkStore := func() Store {
		clu := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 2})
		return &KVStore{Cluster: clu, Level: kvstore.One}
	}
	for _, impl := range storesUnderTest(8_192, Interval, mkStore) {
		b.Run(impl.name, func(b *testing.B) {
			val := []byte(`{"count":42}`)
			stop := make(chan struct{})
			flusherDone := make(chan struct{})
			go func() {
				defer close(flusherDone)
				for {
					select {
					case <-stop:
						return
					default:
						impl.s.FlushDirty()
					}
				}
			}()
			b.SetParallelism(parallelism())
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(rand.Int63()))
				for pb.Next() {
					impl.s.Put(keys[rng.Intn(len(keys))], val)
				}
			})
			b.StopTimer()
			close(stop)
			<-flusherDone
		})
	}
}

// BenchmarkFlushDirtyBatchVsSingle isolates the flush path itself:
// 4096 dirty slates drained to an SSD-profile cluster in one
// FlushDirty call, as one-slate batches (the per-slate flusher the
// group commit replaced) and as group-commit batches. Beyond wall-clock
// time, it reports the simulated device busy time per flush (the repo's
// standard I/O metric): the baseline pays one commit-log seek per slate
// per replica, the group-commit path one per multi-put per node.
func BenchmarkFlushDirtyBatchVsSingle(b *testing.B) {
	keys := benchKeys(4_096)
	val := []byte(`{"count":42}`)
	ssd := storage.SSD()
	impls := []struct {
		name string
		cfg  ShardedConfig
	}{
		{"single-lock", ShardedConfig{Shards: 1, MaxFlushBatch: 1}},
		{"sharded-16", ShardedConfig{Shards: 16}},
	}
	for _, impl := range impls {
		b.Run(impl.name, func(b *testing.B) {
			clu := kvstore.NewCluster(kvstore.ClusterConfig{
				Nodes: 3, ReplicationFactor: 2, DeviceProfile: &ssd,
			})
			cfg := impl.cfg
			cfg.Capacity, cfg.Policy, cfg.Store = 8_192, Interval, &KVStore{Cluster: clu, Level: kvstore.One}
			s := NewSharded(cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, key := range keys {
					s.Put(key, val)
				}
				b.StartTimer()
				s.FlushDirty()
			}
			b.StopTimer()
			var busy time.Duration
			var writeOps uint64
			for _, name := range clu.Nodes() {
				st := clu.Node(name).Device().Stats()
				busy += st.BusyTime
				writeOps += st.WriteOps
			}
			b.ReportMetric(float64(busy.Microseconds())/float64(b.N), "device-µs/flush")
			b.ReportMetric(float64(writeOps)/float64(b.N), "device-writes/flush")
		})
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10000})
	for i := 0; i < 1000; i++ {
		c.Put(k("U", fmt.Sprintf("k%d", i)), []byte("v"))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(k("U", fmt.Sprintf("k%d", i%1000)))
	}
}

func BenchmarkCachePutWriteThrough(b *testing.B) {
	c := NewSharded(ShardedConfig{Shards: 1, Capacity: 10000, Policy: WriteThrough, Store: newFakeStore()})
	v := []byte(`{"count": 42}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(k("U", fmt.Sprintf("k%d", i%1000)), v)
	}
}
