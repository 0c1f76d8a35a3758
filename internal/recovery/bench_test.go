// Recovery-time benchmarks: crash a machine under load and measure
// the wall-clock cost of the failover protocol (drain + cache crash +
// redelivery) and of the rejoin handover (quiesce + flush + warm).
package recovery_test

import (
	"fmt"
	"strconv"
	"testing"

	"muppet"
)

func benchApp() *muppet.App {
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := muppet.NewApp("recovery-bench").Input("S1")
	app.AddUpdate(u, []string{"S1"}, nil, 0)
	return app
}

func benchEngine(b *testing.B, replay bool) muppet.Engine {
	b.Helper()
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true})
	eng, err := muppet.NewEngine(benchApp(), muppet.Config{
		Machines: 6, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 16,
		ReplayLog: replay,
	})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

func loadUp(eng muppet.Engine, n, keys int) {
	for i := 0; i < n; i++ {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%keys)})
	}
}

// BenchmarkFailoverStock measures the stock crash path under a live
// backlog: drain the victim's queues, account the losses, crash the
// slate cache.
func BenchmarkFailoverStock(b *testing.B) {
	const events, keys = 20_000, 200
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, false)
		loadUp(eng, events, keys)
		b.StartTimer()
		eng.CrashMachine("machine-03")
		b.StopTimer()
		eng.Stop()
	}
}

// BenchmarkFailoverReplay measures the full master-coordinated
// failover with redelivery: drain, cache crash, ring update, and
// redelivery of the unacknowledged backlog to the new owners.
func BenchmarkFailoverReplay(b *testing.B) {
	const events, keys = 20_000, 200
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, true)
		loadUp(eng, events, keys)
		b.StartTimer()
		eng.(muppet.Replayer).CrashMachineAndReplay("machine-03")
		b.StopTimer()
		eng.Stop()
	}
}

// BenchmarkRejoinWarm measures the rejoin handover: quiesce, flush the
// interim owners, flip the ring, and warm the revived machine's cache
// from the store.
func BenchmarkRejoinWarm(b *testing.B) {
	const events, keys = 20_000, 200
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := benchEngine(b, false)
		loadUp(eng, events, keys)
		eng.Drain()
		eng.CrashMachine("machine-03")
		loadUp(eng, events/4, keys)
		b.StartTimer()
		if _, err := eng.RejoinMachine("machine-03"); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		eng.Stop()
	}
}
