package engine1

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/queue"
)

func TestIngestBatchOverflowDropLandsInLostLog(t *testing.T) {
	slow := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		time.Sleep(200 * time.Microsecond)
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := core.NewApp("slow").Input("S1").AddUpdate(slow, []string{"S1"}, nil, 0)
	e, err := New(app, Config{
		Machines: 1, WorkersPerFunction: 1,
		QueueCapacity: 8, QueuePolicy: queue.Drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	evs := make([]event.Event, 400)
	for i := range evs {
		evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"}
	}
	accepted, ierr := e.IngestBatch(evs)
	e.Drain()
	var be *ingress.BatchError
	if !errors.As(ierr, &be) {
		t.Fatalf("err = %v, want *BatchError (accepted=%d)", ierr, accepted)
	}
	if be.Reasons["batch-partial"] == 0 {
		t.Fatalf("reasons = %v", be.Reasons)
	}
	if e.LostEvents().Totals()["batch-partial"] != uint64(be.Dropped) {
		t.Fatalf("lost log totals = %v, want batch-partial=%d", e.LostEvents().Totals(), be.Dropped)
	}
}

func TestIngestCtxBlocksUntilAcceptedOrExpired(t *testing.T) {
	slow := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		time.Sleep(200 * time.Microsecond)
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := core.NewApp("slow").Input("S1").AddUpdate(slow, []string{"S1"}, nil, 0)
	e, err := New(app, Config{
		Machines: 1, WorkersPerFunction: 1,
		QueueCapacity: 4, QueuePolicy: queue.Drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := 100
	for i := 0; i < n; i++ {
		if err := e.IngestCtx(ctx, event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	e.Drain()
	if got, _ := strconv.Atoi(string(e.Slate("U", "hot"))); got != n {
		t.Fatalf("count = %d, want %d", got, n)
	}
}

// TestIngestCtxDeadlineHoldsUnderBlock: a source with a deadline never
// parks on a queue, so under Block too IngestCtx gives up with
// ErrBackpressure once its deadline passes while the queue stays full.
func TestIngestCtxDeadlineHoldsUnderBlock(t *testing.T) {
	release := make(chan struct{})
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) { <-release }}
	e, err := New(core.NewApp("parked").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0), Config{
		Machines: 1, WorkersPerFunction: 1,
		QueueCapacity: 1, QueuePolicy: queue.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	defer close(release)
	// One event parks the updater, the next fills its queue.
	for i := 0; i < 2; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.IngestCtx(ctx, event.Event{Stream: "S1", TS: 3, Key: "hot"}) }()
	select {
	case err := <-done:
		if !errors.Is(err, ingress.ErrBackpressure) {
			t.Fatalf("IngestCtx = %v, want ErrBackpressure", err)
		}
	case <-time.After(time.Second):
		t.Fatal("IngestCtx ignored its 50ms deadline: still waiting on a full queue after 1s")
	}
}

// TestSubscribeAndBoundedOutput: the bound on egress is each
// subscriber's buffer. A roomy subscription and a handler see every
// output event; a tiny subscription sheds the overflow and counts it.
func TestSubscribeAndBoundedOutput(t *testing.T) {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", in.Key, nil)
	}}
	app := core.NewApp("out").Input("S1").Output("S2").AddMap(m, []string{"S1"}, []string{"S2"})
	e, err := New(app, Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe("S2", 1024)
	tiny := e.Subscribe("S2", 8)
	var handled atomic.Int64
	e.AttachOutput("S2", engine.OutputHandlerFunc(func(event.Event) { handled.Add(1) }))
	n := 60
	for i := 0; i < n; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "k"})
	}
	e.Stop()
	live := 0
	for range sub.C() {
		live++
	}
	if live != n {
		t.Fatalf("subscription saw %d, want %d", live, n)
	}
	if got := handled.Load(); got != int64(n) {
		t.Fatalf("handler saw %d, want %d", got, n)
	}
	if got := len(tiny.C()); got != 8 || tiny.Dropped() != uint64(n-8) {
		t.Fatalf("8-slot subscription kept %d and dropped %d, want 8 and %d", got, tiny.Dropped(), n-8)
	}
}
