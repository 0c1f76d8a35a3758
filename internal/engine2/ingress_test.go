package engine2

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/queue"
)

func batchOf(n, from int, retailer string) []event.Event {
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = checkin(from+i, retailer)
	}
	return evs
}

// sleepyApp processes slowly so small queues overflow under a burst.
func sleepyApp() *core.App {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		time.Sleep(200 * time.Microsecond)
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return core.NewApp("sleepy").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

func TestIngestBatchDropPolicyReportsPartial(t *testing.T) {
	e, err := New(sleepyApp(), Config{
		Machines: 1, ThreadsPerMachine: 1,
		QueueCapacity: 8, QueuePolicy: queue.Drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	evs := make([]event.Event, 500)
	for i := range evs {
		evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"}
	}
	accepted, ierr := e.IngestBatch(evs)
	e.Drain()
	if accepted == len(evs) && ierr == nil {
		t.Fatal("a 500-event burst into an 8-slot queue cannot be fully accepted")
	}
	var be *ingress.BatchError
	if !errors.As(ierr, &be) {
		t.Fatalf("err = %v, want *BatchError", ierr)
	}
	if be.Accepted != accepted || be.Dropped == 0 {
		t.Fatalf("batch error inconsistent: accepted=%d %+v", accepted, be)
	}
	if be.Reasons["batch-partial"] == 0 {
		t.Fatalf("drops not attributed to batch-partial: %v", be.Reasons)
	}
	// Every drop landed in the lost log under the distinct reason.
	totals := e.LostEvents().Totals()
	if totals["batch-partial"] != uint64(be.Dropped) {
		t.Fatalf("lost log totals = %v, want batch-partial = %d", totals, be.Dropped)
	}
	if st := e.Stats(); st.LostOverflow != uint64(be.Dropped) {
		t.Fatalf("LostOverflow = %d, want %d", st.LostOverflow, be.Dropped)
	}
}

func TestIngestBatchDivertPolicyReroutesOverflow(t *testing.T) {
	slow := core.UpdateFunc{FName: "U_full", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		time.Sleep(200 * time.Microsecond)
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	cheap := core.UpdateFunc{FName: "U_degraded", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := core.NewApp("divert").
		Input("S1", "S_ovf").
		AddUpdate(slow, []string{"S1"}, nil, 0).
		AddUpdate(cheap, []string{"S_ovf"}, nil, 0)
	// Single-queue dispatch so each (function, key) owns one fixed
	// thread; the key below is chosen so the degraded pipeline's
	// thread differs from the overdriven one (in 1.0 the functions
	// have disparate workers by construction; 2.0 shares the pool).
	e, err := New(app, Config{
		Machines: 1, ThreadsPerMachine: 4, DisableDualQueue: true,
		QueueCapacity: 8, QueuePolicy: queue.Divert, OverflowStream: "S_ovf",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines["machine-00"]
	key := ""
	for i := 0; i < 1000; i++ {
		k := fmt.Sprintf("hot%d", i)
		pf, _, _ := e.candidates(m, fk{fn: "U_full", key: k})
		pd, _, _ := e.candidates(m, fk{fn: "U_degraded", key: k})
		if pf != pd {
			key = k
			break
		}
	}
	if key == "" {
		t.Fatal("no key separates the two updaters' threads")
	}
	evs := make([]event.Event, 400)
	for i := range evs {
		evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: key}
	}
	if _, err := e.IngestBatch(evs); err != nil {
		// Diverted deliveries are rerouted, not dropped; only further
		// losses (e.g. the overflow stream itself overflowing) surface.
		var be *ingress.BatchError
		if !errors.As(err, &be) {
			t.Fatalf("err = %v", err)
		}
	}
	e.Drain()
	st := e.Stats()
	if st.Diverted == 0 {
		t.Fatal("burst through a full queue under Divert diverted nothing")
	}
	full, _ := strconv.Atoi(string(e.Slate("U_full", key)))
	degraded, _ := strconv.Atoi(string(e.Slate("U_degraded", key)))
	if degraded == 0 {
		t.Fatal("degraded pipeline processed nothing")
	}
	if full+degraded+int(st.LostOverflow) != len(evs) {
		t.Fatalf("conservation: full=%d degraded=%d lost=%d of %d",
			full, degraded, st.LostOverflow, len(evs))
	}
}

func TestIngestBatchBlockPolicyAcceptsEverything(t *testing.T) {
	e, err := New(sleepyApp(), Config{
		Machines: 1, ThreadsPerMachine: 1,
		QueueCapacity: 8, QueuePolicy: queue.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	evs := make([]event.Event, 300)
	for i := range evs {
		evs[i] = event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"}
	}
	accepted, ierr := e.IngestBatch(evs)
	if ierr != nil || accepted != len(evs) {
		t.Fatalf("Block policy: accepted=%d err=%v", accepted, ierr)
	}
	e.Drain()
	if got, _ := strconv.Atoi(string(e.Slate("U", "hot"))); got != len(evs) {
		t.Fatalf("count = %d, want %d", got, len(evs))
	}
}

func TestIngestBatchRejectsNonInputStreamWhole(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	evs := []event.Event{checkin(1, "walmart"), {Stream: "S2", Key: "x"}}
	n, ierr := e.IngestBatch(evs)
	var nie *ingress.NotInputError
	if n != 0 || !errors.As(ierr, &nie) || nie.Stream != "S2" {
		t.Fatalf("IngestBatch = %d, %v; want 0, NotInputError{S2}", n, ierr)
	}
	e.Drain()
	if st := e.Stats(); st.Ingested != 0 {
		t.Fatalf("rejected batch had side effects: Ingested = %d", st.Ingested)
	}
}

func TestIngestBatchOnStoppedEngine(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	n, ierr := e.IngestBatch(batchOf(3, 1, "walmart"))
	if n != 0 || ierr != ingress.ErrStopped {
		t.Fatalf("IngestBatch on stopped = %d, %v", n, ierr)
	}
	if e.LostEvents().Totals()["engine-stopped"] != 3 {
		t.Fatalf("stopped drops not logged: %v", e.LostEvents().Totals())
	}
}

func TestIngestBatchToCrashedMachineAccountsLoss(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 2, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// Seed so both machines own keys, then crash one organically (no
	// operator report) and batch-ingest: deliveries to the dead machine
	// are lost, logged, and reported; detection rides the failed send.
	if _, err := e.IngestBatch(batchOf(50, 1, "walmart")); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	victim := e.MachineFor("M1", "c51")
	e.Cluster().Crash(victim)
	n, ierr := e.IngestBatch(batchOf(20, 51, "walmart"))
	e.Drain()
	if ierr == nil && n == 20 {
		// All 20 keys may route to the surviving machine only if the
		// ring failed over instantly; with detect-on-send the first
		// batch must observe at least one machine-down loss.
		t.Fatal("no loss observed ingesting into a crashed machine")
	}
	var be *ingress.BatchError
	if !errors.As(ierr, &be) {
		t.Fatalf("err = %v, want *BatchError", ierr)
	}
	if be.Reasons["machine-down"] == 0 {
		t.Fatalf("reasons = %v, want machine-down", be.Reasons)
	}
	if e.RecoveryStatus().Failovers == 0 {
		t.Fatal("batch send failure did not drive the failover")
	}
}

func TestIngestCtxBackpressureExpires(t *testing.T) {
	e, err := New(sleepyApp(), Config{
		Machines: 1, ThreadsPerMachine: 1,
		QueueCapacity: 4, QueuePolicy: queue.Drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// Fill the queue, then ingest with an already-expired context: the
	// overflow must surface as a backpressure error, not a silent drop.
	for i := 0; i < 200; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sawBackpressure := false
	for i := 0; i < 50; i++ {
		err := e.IngestCtx(ctx, event.Event{Stream: "S1", TS: event.Timestamp(1000 + i), Key: "hot"})
		if errors.Is(err, ingress.ErrBackpressure) {
			sawBackpressure = true
			break
		}
	}
	e.Drain()
	if !sawBackpressure {
		t.Fatal("full queue never surfaced ErrBackpressure through IngestCtx")
	}
}

func TestIngestCtxDeliversUnderPressure(t *testing.T) {
	e, err := New(sleepyApp(), Config{
		Machines: 1, ThreadsPerMachine: 1,
		QueueCapacity: 4, QueuePolicy: queue.Drop,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	n := 120
	for i := 0; i < n; i++ {
		if err := e.IngestCtx(ctx, event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"}); err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
	}
	e.Drain()
	if got, _ := strconv.Atoi(string(e.Slate("U", "hot"))); got != n {
		t.Fatalf("count = %d, want %d — IngestCtx dropped under pressure", got, n)
	}
}

// TestIngestCtxDeadlineHoldsUnderBlock: a source with a deadline never
// parks on a queue, so under Block too IngestCtx gives up with
// ErrBackpressure once its deadline passes while the queue stays full.
func TestIngestCtxDeadlineHoldsUnderBlock(t *testing.T) {
	release := make(chan struct{})
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) { <-release }}
	e, err := New(core.NewApp("parked").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0), Config{
		Machines: 1, ThreadsPerMachine: 1,
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

// TestSubscribeOrderingMatchesDrainOutput: after Stop the subscription
// holds every published event, the same ones a handler saw, and each
// key's events in publication order. A single queue per key makes that
// order the ingest order.
func TestSubscribeOrderingMatchesDrainOutput(t *testing.T) {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	app := core.NewApp("out").Input("S1").Output("S2").AddMap(m, []string{"S1"}, []string{"S2"})
	e, err := New(app, Config{Machines: 2, ThreadsPerMachine: 2, DisableDualQueue: true})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe("S2", 4096)
	var mu sync.Mutex
	handled := map[string]int{}
	e.AttachOutput("S2", engine.OutputHandlerFunc(func(ev event.Event) {
		mu.Lock()
		handled[ev.Key]++
		mu.Unlock()
	}))
	for i := 0; i < 200; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%4), Value: []byte(strconv.Itoa(i))})
	}
	e.Stop() // drain + close subscription channels
	live, last := map[string]int{}, map[string]int{}
	for ev := range sub.C() {
		i, _ := strconv.Atoi(string(ev.Value))
		if prev, ok := last[ev.Key]; ok && i <= prev {
			t.Fatalf("key %s: event %d arrived after %d", ev.Key, i, prev)
		}
		last[ev.Key] = i
		live[ev.Key]++
	}
	if len(live) != 4 || live["k0"] != 50 || fmt.Sprint(live) != fmt.Sprint(handled) {
		t.Fatalf("subscription saw %v, handler %v; want 50 per key on both", live, handled)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("unexpected subscriber drops: %d", sub.Dropped())
	}
}

func TestSlowSubscriberShedsWithoutStallingEngine(t *testing.T) {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", in.Key, nil)
	}}
	app := core.NewApp("out").Input("S1").Output("S2").AddMap(m, []string{"S1"}, []string{"S2"})
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	sub := e.Subscribe("S2", 4) // tiny buffer, never read until the end
	var handled atomic.Int64
	e.AttachOutput("S2", engine.OutputHandlerFunc(func(event.Event) { handled.Add(1) }))
	n := 500
	for i := 0; i < n; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "k"})
	}
	e.Stop()
	received := 0
	for range sub.C() {
		received++
	}
	if received+int(sub.Dropped()) != n {
		t.Fatalf("received %d + dropped %d != %d", received, sub.Dropped(), n)
	}
	if sub.Dropped() == 0 {
		t.Fatal("a 4-slot subscriber absorbing 500 events must shed")
	}
	// The engine itself lost nothing: shedding is per subscriber.
	if got := handled.Load(); got != int64(n) {
		t.Fatalf("handler saw %d, want %d", got, n)
	}
}

func TestAttachOutputHandlerSeesEveryEvent(t *testing.T) {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", in.Key, nil)
	}}
	app := core.NewApp("out").Input("S1").Output("S2").AddMap(m, []string{"S1"}, []string{"S2"})
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	seen := make(chan string, 1024)
	e.AttachOutput("S2", engine.OutputHandlerFunc(func(ev event.Event) { seen <- ev.Key }))
	n := 50
	for i := 0; i < n; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "k"})
	}
	e.Drain()
	close(seen)
	got := 0
	for range seen {
		got++
	}
	if got != n {
		t.Fatalf("handler saw %d events, want %d", got, n)
	}
}

func TestIngestCtxMachineDownIsNotBackpressure(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 2, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	if _, err := e.IngestBatch(batchOf(20, 1, "walmart")); err != nil {
		t.Fatal(err)
	}
	e.Drain()
	victim := e.MachineFor("M1", "c100")
	e.Cluster().Crash(victim)
	// Expired context + dead destination: the failure is the dead
	// machine, and must not be masked as backpressure just because the
	// context happens to be done.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ierr := e.IngestCtx(ctx, checkin(100, "walmart"))
	if ierr == nil {
		t.Fatal("ingest into a dead machine reported success")
	}
	if errors.Is(ierr, ingress.ErrBackpressure) {
		t.Fatalf("machine-down loss misreported as backpressure: %v", ierr)
	}
	var be *ingress.BatchError
	if !errors.As(ierr, &be) || be.Reasons["machine-down"] == 0 {
		t.Fatalf("err = %v, want BatchError{machine-down}", ierr)
	}
}

func TestSubscribeNonOutputStreamPanics(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe on a non-output stream should panic")
		}
	}()
	e.Subscribe("S2", 0) // S2 is internal, not a declared output
}

func TestAttachOutputNonOutputStreamPanics(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("AttachOutput on a non-output stream should panic")
		}
	}()
	e.AttachOutput("nope", engine.OutputHandlerFunc(func(event.Event) {}))
}
