package runtime_test

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/runtime"
	"muppet/internal/slate"
)

// countingCodec is an int slate in ASCII decimal that counts its
// encodes.
type countingCodec struct{ encodes *atomic.Int64 }

func (countingCodec) Decode(data []byte) (*int, error) {
	n, err := strconv.Atoi(string(data))
	return &n, err
}

func (c countingCodec) AppendEncode(dst []byte, n *int) ([]byte, error) {
	c.encodes.Add(1)
	return strconv.AppendInt(dst, int64(*n), 10), nil
}

// flushers counts the goroutines running a cell's flusher loop.
func flushers() int {
	var buf bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&buf, 2)
	return bytes.Count(buf.Bytes(), []byte("runtime.(*Runtime).flusherLoop("))
}

// TestStorelessEngineNeverFlushes: a cache with no store has nowhere
// to flush to, so an in-process engine without one starts no flusher
// and, over 10k typed updates and a Drain, encodes no slate and counts
// no flush. The same engine over a store does start its flushers, so
// the count is real.
func TestStorelessEngineNeverFlushes(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			var encodes atomic.Int64
			u := core.UpdateWith[int]("U1", countingCodec{&encodes}, func(_ core.Emitter, _ event.Event, n *int) { *n++ })
			app := core.NewApp("count").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
			before := flushers()
			r, err := s.new(app, runtime.Config{Machines: 2, FlushPolicy: slate.Interval, QueueCapacity: 1 << 14})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Stop()
			const updates = 10_000
			evs := make([]event.Event, updates)
			for i := range evs {
				evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%100)}
			}
			for i := 0; i < updates; i += 500 {
				if _, err := r.IngestBatch(evs[i : i+500]); err != nil {
					t.Fatal(err)
				}
			}
			r.Drain()
			// Every goroutine Start made has run by now: a flusher would
			// show in its loop.
			if n := flushers() - before; n != 0 {
				t.Fatalf("a store-less engine runs %d flushers, want none", n)
			}
			if got := r.Stats().SlateUpdates; got != updates {
				t.Fatalf("SlateUpdates = %d, want %d", got, updates)
			}
			if lat := r.Counters().Latency; len(lat) < 2 || lat.Snapshot().Count != updates {
				t.Fatalf("%d latency shards hold %d samples, want one shard per loop and %d", len(lat), lat.Snapshot().Count, updates)
			}
			r.FlushSlates()
			if n := encodes.Load(); n != 0 {
				t.Fatalf("%d slates encoded with nowhere to save them", n)
			}
			if fs := r.FlushStats(); fs != (slate.FlushStats{}) {
				t.Fatalf("FlushStats = %+v, want zero", fs)
			}

			store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
			withStore, err := s.new(app, runtime.Config{Machines: 2, FlushPolicy: slate.Interval, Store: store})
			if err != nil {
				t.Fatal(err)
			}
			defer withStore.Stop()
			for deadline := time.Now().Add(5 * time.Second); flushers() == before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("an engine over a store runs no flusher")
				}
			}
		})
	}
}
