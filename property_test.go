package muppet_test

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"

	"muppet"
	"muppet/muppetapps"
)

// Cross-module property tests: whole-system invariants checked over
// randomized inputs with testing/quick. Per-package properties (heap
// order, ring consistency, LSM-vs-model, bloom no-false-negatives,
// compression round-trips, queue conservation) live next to their
// packages; these exercise the assembled engines.

// TestPropertyEngineCountsMatchOracle: for any random event sequence,
// both engines' per-key counts equal a plain map's. Counting is
// commutative, so this holds despite the engines' reordering.
func TestPropertyEngineCountsMatchOracle(t *testing.T) {
	for _, version := range []muppet.EngineVersion{muppet.EngineV1, muppet.EngineV2} {
		version := version
		f := func(keys []uint8) bool {
			eng, err := muppet.NewEngine(keyCountApp(), muppet.Config{
				Engine: version, Machines: 3, QueueCapacity: 1 << 14,
			})
			if err != nil {
				return false
			}
			defer eng.Stop()
			model := map[string]int{}
			for i, k := range keys {
				key := fmt.Sprintf("k%d", k%16)
				model[key]++
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: key})
			}
			eng.Drain()
			for key, want := range model {
				got, _ := strconv.Atoi(string(eng.Slate("U", key)))
				if got != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
			t.Fatalf("engine %v: %v", version, err)
		}
	}
}

// TestPropertyStatsConservation: ingested deliveries are always fully
// accounted: processed + lost + diverted.
func TestPropertyStatsConservation(t *testing.T) {
	f := func(keys []uint8, capExp uint8) bool {
		capacity := 4 + int(capExp%64)
		u := muppet.UpdateFunc{FName: "U", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
			emit.ReplaceSlate([]byte("x"))
		}}
		app := muppet.NewApp("conserve").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
		eng, err := muppet.NewEngine(app, muppet.Config{
			Machines: 2, QueueCapacity: capacity, QueuePolicy: muppet.DropOverflow,
		})
		if err != nil {
			return false
		}
		defer eng.Stop()
		for i, k := range keys {
			eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", k)})
		}
		eng.Drain()
		s := eng.Stats()
		return s.Processed+s.LostOverflow+s.LostMachineDown+s.Diverted == uint64(len(keys))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPersistenceRoundTrip: whatever random slate bytes an
// updater writes, they come back identical through the compressed,
// replicated store after eviction.
func TestPropertyPersistenceRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		if len(payloads) == 0 {
			return true
		}
		store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true})
		u := muppet.UpdateFunc{FName: "U", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
			emit.ReplaceSlate(in.Value)
		}}
		app := muppet.NewApp("rt").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
		eng, err := muppet.NewEngine(app, muppet.Config{
			Machines: 2, Store: store, StoreLevel: muppet.Quorum,
			FlushPolicy: muppet.WriteThrough,
			// Tiny cache so reads go through the store.
			CacheCapacity: 1, QueueCapacity: 1 << 14,
		})
		if err != nil {
			return false
		}
		defer eng.Stop()
		for i, p := range payloads {
			eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i), Value: p})
		}
		eng.Drain()
		for i, p := range payloads {
			got := eng.Slate("U", fmt.Sprintf("k%d", i))
			if string(got) != string(p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRetailerTotalsConserved: for any random checkin stream,
// the sum of all retailer counts equals the number of recognized
// checkins (no duplication, no loss, any engine).
func TestPropertyRetailerTotalsConserved(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := 50 + int(nRaw%500)
		gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: seed, RetailerFraction: 0.5})
		events := gen.Checkins("S1", n)
		recognized := 0
		for _, ev := range events {
			c, _ := muppetapps.ParseCheckin(ev.Value)
			if _, ok := muppetapps.CanonicalRetailer(c.Venue); ok {
				recognized++
			}
		}
		eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
			Machines: 3, QueueCapacity: 1 << 14,
		})
		if err != nil {
			return false
		}
		defer eng.Stop()
		for _, ev := range events {
			eng.Ingest(ev)
		}
		eng.Drain()
		total := 0
		for _, r := range muppetapps.RetailerSet() {
			total += muppetapps.Count(eng.Slate("U1", r))
		}
		return total == recognized
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
