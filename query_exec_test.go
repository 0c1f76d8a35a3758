package muppet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"muppet"
)

// Regression and invariant tests of the node-local query path: what a
// query must do when its store scan fails or a slate is mid-update, and
// the properties the streaming executor's speed rests on — answers that
// do not depend on arrival order, reads that neither race the updaters
// nor allocate per row.

// hit is the struct slate of these tests: a per-key counter plus a
// float the order of whose sum matters.
type hit struct {
	N     int     `json:"n"`
	Score float64 `json:"score"`
	Shard string  `json:"shard"`
}

// hitApp counts events per key into a typed hit slate; each event adds
// 0.1 (a sum that is not exact in binary) to Score. hook, when non-nil,
// runs inside every invocation after the slate has been mutated.
func hitApp(hook func(in muppet.Event, s *hit)) *muppet.App {
	u := muppet.Update[hit]("U", func(emit muppet.Emitter, in muppet.Event, s *hit) {
		s.N++
		s.Score += 0.1
		s.Shard = "s" + in.Key[len(in.Key)-1:]
		if hook != nil {
			hook(in, s)
		}
	})
	return muppet.NewApp("hits").Input("S").AddUpdate(u, []string{"S"}, nil, 0)
}

func ingestKeys(t *testing.T, eng muppet.Engine, keys, rounds int) {
	t.Helper()
	evs := make([]muppet.Event, 0, keys*rounds)
	for r := 0; r < rounds; r++ {
		for i := 0; i < keys; i++ {
			evs = append(evs, muppet.Event{Stream: "S", TS: muppet.Timestamp(len(evs) + 1), Key: fmt.Sprintf("k%05d", i)})
		}
	}
	if _, err := eng.IngestBatch(evs); err != nil {
		t.Fatal(err)
	}
	eng.Drain()
}

// A store scan that fails must fail the query: with most slates evicted
// to the store and the store's engines closed under the runtime, the
// rows that can still be read are an under-count, not an answer. Only a
// query that runs the store pass can fail this way: while a machine's
// caches provably hold every stored slate it owns, its passes skip the
// store (Runtime.queryLocal) and answer from the caches whatever state
// the store is in. Here a 4-slate cache holds 4 of 40 stored slates, so
// every pass reads the store.
func TestQueryFailsWhenStoreScanFails(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
	eng, err := muppet.NewEngine(hitApp(nil), muppet.Config{Machines: 1, CacheCapacity: 4, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ingestKeys(t, eng, 40, 1)
	res, err := eng.Query(muppet.QuerySpec{Updater: "U", Agg: "count"})
	if err != nil || res.Groups[0].Count != 40 {
		t.Fatalf("count over a healthy store = %+v, %v; want 40", res, err)
	}
	store.Close()
	if res, err := eng.Query(muppet.QuerySpec{Updater: "U", Agg: "count"}); err == nil {
		t.Fatalf("store scan failed but the query answered %+v", res.Groups)
	}
}

// A slate pinned by an in-flight update and never yet encoded reads as
// "no slate" everywhere else (slate.Sharded.Peek); a query must agree —
// not count it as corrupt, not return an empty row for it.
func TestQuerySkipsSlateWithNoEncodingYet(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	eng, err := muppet.NewEngine(hitApp(func(in muppet.Event, s *hit) {
		if in.Key == "parked" && s.N == 2 {
			close(entered)
			<-gate
		}
	}), muppet.Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ingestKeys(t, eng, 5, 1)
	// Without a store nothing encodes "parked" between its first update
	// and its second, which parks holding the pin.
	for i := 0; i < 2; i++ {
		eng.Ingest(muppet.Event{Stream: "S", TS: muppet.Timestamp(100 + i), Key: "parked"})
	}
	<-entered
	for _, spec := range []muppet.QuerySpec{
		{Updater: "U", Agg: "count"},
		{Updater: "U"},
		{Updater: "U", Agg: "topk", By: "n", K: 10},
	} {
		res, err := eng.Query(spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if res.Stats.DecodeErrors != 0 {
			t.Errorf("%+v: a slate mid-update counted as %d decode errors", spec, res.Stats.DecodeErrors)
		}
		rows := len(res.Rows)
		switch spec.Agg {
		case "count":
			rows = int(res.Groups[0].Count)
		case "topk":
			rows = len(res.Groups)
		}
		if rows != 5 {
			t.Errorf("%+v: answered %d slates, want the 5 settled ones: %+v %+v", spec, rows, res.Rows, res.Groups)
		}
	}
	close(gate)
	eng.Drain()
	res, err := eng.Query(muppet.QuerySpec{Updater: "U", Agg: "count"})
	if err != nil || res.Groups[0].Count != 6 {
		t.Fatalf("after the update completed: %+v, %v; want 6", res, err)
	}
}

// Float sums are folded in key order, not in cache-shard (Go map)
// order: the same query over unchanged slates is the same bytes every
// time, or a standing sum watch would flap on the last bit.
func TestQueryFloatSumsAreDeterministic(t *testing.T) {
	eng, err := muppet.NewEngine(hitApp(nil), muppet.Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ingestKeys(t, eng, 300, 7)
	for _, spec := range []muppet.QuerySpec{
		{Updater: "U", Agg: "sum", By: "score"},
		{Updater: "U", Agg: "sum", By: "score", GroupBy: "shard"},
		{Updater: "U", Agg: "topk", By: "score", GroupBy: "shard", K: 3},
	} {
		var first []byte
		for i := 0; i < 20; i++ {
			res, err := eng.Query(spec)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := json.Marshal(res.Groups)
			if first == nil {
				first = got
			} else if !bytes.Equal(got, first) {
				t.Fatalf("%+v: run %d answered\n%s\nrun 0 answered\n%s", spec, i, got, first)
			}
		}
	}
}

// Typed updaters hammer 64 keys — through a cache too small for them,
// over a store, so rows arrive decoded, pinned, as encodings and from
// the store — while top-k, sum and scan queries loop. Under -race this
// is the check that reading a decoded slate as the object it is never
// overlaps the updater's writes; in any mode a per-key counter must
// never go backwards between successive answers.
func TestQueryRacesTypedUpdaters(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
	defer store.Close()
	eng, err := muppet.NewEngine(hitApp(nil), muppet.Config{
		Machines: 2, ThreadsPerMachine: 2, CacheCapacity: 24, Store: store,
		FlushPolicy: muppet.FlushInterval, QueueCapacity: 1 << 12, QueuePolicy: muppet.BlockOverflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var stop atomic.Bool
	var wg sync.WaitGroup
	loop := func(spec muppet.QuerySpec, check func(res *muppet.QueryResult, last map[string]float64)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := make(map[string]float64)
			for !stop.Load() {
				res, err := eng.Query(spec)
				if err != nil {
					t.Errorf("%+v: %v", spec, err)
					return
				}
				if res.Stats.DecodeErrors != 0 {
					t.Errorf("%+v: %d decode errors", spec, res.Stats.DecodeErrors)
				}
				check(res, last)
			}
		}()
	}
	forward := func(what, key string, now float64, last map[string]float64) {
		if now < last[key] {
			t.Errorf("%s: %s went backwards: %v after %v", what, key, now, last[key])
		}
		last[key] = now
	}
	loop(muppet.QuerySpec{Updater: "U", Agg: "topk", By: "n", K: 64}, func(res *muppet.QueryResult, last map[string]float64) {
		for _, g := range res.Groups {
			forward("topk", g.Key, g.Sum, last)
		}
	})
	loop(muppet.QuerySpec{Updater: "U", Agg: "sum", By: "n"}, func(res *muppet.QueryResult, last map[string]float64) {
		for _, g := range res.Groups {
			forward("sum", "total", g.Sum, last)
		}
	})
	loop(muppet.QuerySpec{Updater: "U", Fields: []string{"n"}}, func(res *muppet.QueryResult, last map[string]float64) {
		for _, r := range res.Rows {
			var v struct{ N float64 }
			if err := json.Unmarshal(r.Value, &v); err != nil {
				t.Errorf("scan row %s = %s: %v", r.Key, r.Value, err)
			}
			forward("scan", r.Key, v.N, last)
		}
	})
	for i := 0; i < 6000; i++ {
		eng.Ingest(muppet.Event{Stream: "S", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%05d", i%64)})
	}
	eng.Drain()
	stop.Store(true)
	wg.Wait()
	res, err := eng.Query(muppet.QuerySpec{Updater: "U", Agg: "sum", By: "n"})
	if err != nil || len(res.Groups) != 1 || res.Groups[0].Sum != 6000 || res.Groups[0].Count != 64 {
		t.Fatalf("settled sum = %+v, %v; want 6000 over 64 slates", res, err)
	}
}

// The claim the executor exists for: a key-grouped top-k over 10,000
// cache-resident typed slates allocates a few dozen objects — buffers,
// the heap of k, the answer — not a dozen per row (it was ≈ 150,000).
func TestQueryTopKAllocatesPerQueryNotPerRow(t *testing.T) {
	eng, err := muppet.NewEngine(hitApp(nil), muppet.Config{Machines: 1, CacheCapacity: 20_000, QueueCapacity: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	ingestKeys(t, eng, 10_000, 1)
	spec := muppet.QuerySpec{Updater: "U", Agg: "topk", By: "n", K: 10}
	allocs := testing.AllocsPerRun(5, func() {
		res, err := eng.Query(spec)
		if err != nil || len(res.Groups) != 10 || res.Stats.RowsScanned != 10_000 {
			t.Fatalf("topk = %+v, %v", res, err)
		}
	})
	if allocs > 200 {
		t.Fatalf("top-k over 10,000 cached typed slates allocated %.0f objects, want <= 200", allocs)
	}
	t.Logf("%.0f allocations per query", allocs)
}
