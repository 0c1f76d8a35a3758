package muppet_test

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"testing"

	"muppet"
)

// TestPerKeyOrderWithSingleQueue pins the order contract: with one
// queue per <function, key> — Muppet 1.0, or 2.0 with DisableDualQueue
// — every key's events reach its updater in ingest order, through a
// map stage and across machines. (2.0's dual-queue spill gives that up
// by design for hotspot relief, §4.5, and is not checked here.) Each
// update records the last input index it applied; an index below it is
// an earlier event applied after a later one.
func TestPerKeyOrderWithSingleQueue(t *testing.T) {
	const reps, batch, keys = 20, 400, 60
	for _, tc := range []struct {
		name string
		cfg  muppet.Config
	}{
		{"engine1", muppet.Config{Engine: muppet.EngineV1, Machines: 3, QueueCapacity: 4096}},
		{"engine2-single-queue", muppet.Config{Machines: 3, ThreadsPerMachine: 4, DisableDualQueue: true, QueueCapacity: 4096}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var applied, late atomic.Int64
			m := muppet.MapFunc{FName: "M", Fn: func(emit muppet.Emitter, in muppet.Event) {
				emit.Publish("S2", in.Key, in.Value)
			}}
			u := muppet.Update("U", func(_ muppet.Emitter, in muppet.Event, s *struct{ Last int }) {
				i, _ := strconv.Atoi(string(in.Value))
				if i < s.Last {
					late.Add(1)
				}
				s.Last = i
				applied.Add(1)
			})
			app := muppet.NewApp("order").Input("S1").
				AddMap(m, []string{"S1"}, []string{"S2"}).
				AddUpdate(u, []string{"S2"}, nil, 0)
			e, err := muppet.NewEngine(app, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			rng := rand.New(rand.NewSource(1))
			for r := 0; r < reps; r++ {
				evs := make([]muppet.Event, batch)
				for j := range evs {
					i := r*batch + j + 1
					evs[j] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i), Key: fmt.Sprintf("r%d-k%d", r, rng.Intn(keys)), Value: []byte(strconv.Itoa(i))}
				}
				if _, err := e.IngestBatch(evs); err != nil {
					t.Fatal(err)
				}
				e.Drain()
			}
			if got := applied.Load(); got != reps*batch {
				t.Fatalf("applied %d updates, want %d", got, reps*batch)
			}
			if n := late.Load(); n != 0 {
				t.Fatalf("%d events applied after a later event of the same key", n)
			}
		})
	}
}
