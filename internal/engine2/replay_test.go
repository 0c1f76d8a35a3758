package engine2

import (
	"fmt"
	"strconv"
	"testing"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/slate"
)

func replayApp() *core.App {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return core.NewApp("replay").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

func TestReplayRecoversQueuedEvents(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	e, err := New(replayApp(), Config{
		Machines: 4, ThreadsPerMachine: 2,
		Store: store, StoreLevel: kvstore.Quorum, FlushPolicy: slate.WriteThrough,
		QueueCapacity: 1 << 15, ReplayLog: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	const n = 2000
	want := map[string]int{}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i%100)
		want[key]++
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: key})
		if i == n/2 {
			// Crash a machine mid-stream with a backlog enqueued.
			replayed, _ := e.CrashMachineAndReplay("machine-02")
			t.Logf("replayed %d events", replayed)
		}
	}
	e.Drain()
	// At-least-once: every key's count is >= expected, and the total
	// deficit is zero.
	deficit := 0
	for k, w := range want {
		got := 0
		if sl := e.Slate("U", k); sl != nil {
			got, _ = strconv.Atoi(string(sl))
		}
		if got < w {
			deficit += w - got
		}
	}
	if deficit != 0 {
		t.Fatalf("replay left a deficit of %d events", deficit)
	}
}

func TestReplayPanicsWithoutLog(t *testing.T) {
	e, err := New(replayApp(), Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.CrashMachineAndReplay("machine-00")
}

func TestStockCrashDiscardsLogEntries(t *testing.T) {
	e, err := New(replayApp(), Config{Machines: 2, ReplayLog: true, QueueCapacity: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 500; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%20)})
	}
	lostQ, _ := e.CrashMachine("machine-01")
	e.Drain()
	// The log on the crashed machine must be drained so nothing leaks.
	_, _, pending := e.machines["machine-01"].log.Stats()
	if pending != 0 {
		t.Fatalf("crashed machine's log still holds %d entries (lostQ=%d)", pending, lostQ)
	}
}

func TestReplayLogAckedInNormalOperation(t *testing.T) {
	e, err := New(replayApp(), Config{Machines: 1, ReplayLog: true, QueueCapacity: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 300; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%10)})
	}
	e.Drain()
	appends, acks, pending := e.machines["machine-00"].log.Stats()
	if pending != 0 {
		t.Fatalf("pending = %d after drain", pending)
	}
	if appends != 300 || acks != 300 {
		t.Fatalf("appends/acks = %d/%d, want 300/300", appends, acks)
	}
}
