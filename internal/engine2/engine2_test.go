package engine2

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

func counterApp() *core.App {
	m1 := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) {
		if strings.HasPrefix(string(in.Value), "checkin:") {
			emit.Publish("S2", strings.TrimPrefix(string(in.Value), "checkin:"), in.Value)
		}
	}}
	u1 := core.UpdateFunc{FName: "U1", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		count := 0
		if sl != nil {
			count, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(count + 1)))
	}}
	return core.NewApp("counter").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, nil, 0)
}

func checkin(i int, retailer string) event.Event {
	return event.Event{Stream: "S1", TS: event.Timestamp(i), Key: fmt.Sprintf("c%d", i), Value: []byte("checkin:" + retailer)}
}

func TestCountsCorrectAcrossMachinesAndThreads(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 4, ThreadsPerMachine: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	want := map[string]int{}
	retailers := []string{"walmart", "bestbuy", "jcpenney", "samsclub", "target"}
	for i := 0; i < 500; i++ {
		r := retailers[i%len(retailers)]
		want[r]++
		e.Ingest(checkin(i+1, r))
	}
	e.Drain()
	for r, n := range want {
		if got := string(e.Slate("U1", r)); got != strconv.Itoa(n) {
			t.Fatalf("%s = %q, want %d", r, got, n)
		}
	}
	s := e.Stats()
	if s.Processed != 1000 {
		t.Fatalf("Processed = %d, want 1000", s.Processed)
	}
}

func TestSlateContentionNeverExceedsTwo(t *testing.T) {
	// The 2.0 dispatch rule bounds contention for any slate to at most
	// two workers (Section 4.5). Hammer one hot key through many
	// threads and check the observed maximum.
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		time.Sleep(50 * time.Microsecond) // widen the race window
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := core.NewApp("hot").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 8, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	const n = 400
	for i := 0; i < n; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
	}
	e.Drain()
	s := e.Stats()
	if s.MaxSlateContention > 2 {
		t.Fatalf("slate contention %d exceeds the paper's bound of 2", s.MaxSlateContention)
	}
	// The per-slate lock must make the hot counter exact despite
	// contention.
	if got := string(e.Slate("U", "hot")); got != strconv.Itoa(n) {
		t.Fatalf("hot count = %q, want %d", got, n)
	}
}

func TestDisableDualQueueSingleOwner(t *testing.T) {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		emit.ReplaceSlate([]byte("x"))
	}}
	app := core.NewApp("single").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 8, DisableDualQueue: true, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 200; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
	}
	e.Drain()
	if s := e.Stats(); s.MaxSlateContention > 1 {
		t.Fatalf("single-queue mode saw contention %d, want <= 1", s.MaxSlateContention)
	}
	// All events for the key must land on exactly one thread's queue.
	accepted := 0
	for _, qs := range e.QueueStats() {
		if qs.Accepted > 0 {
			accepted++
		}
	}
	if accepted != 1 {
		t.Fatalf("events landed on %d queues, want 1", accepted)
	}
}

func TestHotKeySpillsToSecondaryQueue(t *testing.T) {
	// The dispatcher spills a key onto its secondary queue when its
	// primary is backed up and neither thread is on the key. So another
	// key with the same primary thread holds that thread inside its
	// updater until the whole flood on the hot key is in: the hot key
	// queues behind it, then spills — however the ingest loop and the
	// workers are scheduled against each other.
	entered, flooded := make(chan string, 301), make(chan struct{})
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		entered <- in.Key
		<-flooded
		emit.ReplaceSlate([]byte("x"))
	}}
	app := core.NewApp("spill").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 4, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines[e.MachineFor("U", "hot")]
	primary, _, _ := e.candidates(m, fk{"U", "hot"})
	blocker := ""
	for i := 0; blocker == ""; i++ {
		k := fmt.Sprintf("blocker-%d", i)
		if p, s, _ := e.candidates(m, fk{"U", k}); p == primary && s != primary {
			blocker = k
		}
	}
	e.Ingest(event.Event{Stream: "S1", TS: 1, Key: blocker})
	if got := <-entered; got != blocker {
		t.Fatalf("first invocation was for %q, want the blocker", got)
	}
	for i := 0; i < 300; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 2), Key: "hot"})
	}
	close(flooded)
	e.Drain()
	busy := 0
	for _, qs := range e.QueueStats() {
		if qs.Accepted > 0 {
			busy++
		}
	}
	if busy != 2 {
		t.Fatalf("hot key used %d queues, want exactly 2 (primary + secondary)", busy)
	}
}

func TestKeyFollowsTheThreadProcessingIt(t *testing.T) {
	// The dispatcher's first rule (Section 4.5): an event for a
	// (function, key) that one of its two threads is processing goes to
	// that thread, however the queues compare. Park k's update on its
	// secondary thread and empty its primary's queue: a further k must
	// queue behind the parked one, not on the idle primary.
	entered := make(chan string, 8) // one per invocation below: no update waits on the test
	gates := map[string]chan struct{}{"k": make(chan struct{})}
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		entered <- in.Key
		if g := gates[in.Key]; g != nil {
			<-g
		}
		emit.ReplaceSlate([]byte("x"))
	}}
	app := core.NewApp("follow").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 4, QueueCapacity: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines[e.MachineFor("U", "k")]
	p, s, _ := e.candidates(m, fk{"U", "k"})
	blocker := ""
	for i := 0; blocker == ""; i++ {
		if bp, _, _ := e.candidates(m, fk{"U", fmt.Sprintf("b%d", i)}); bp == p {
			blocker = fmt.Sprintf("b%d", i)
		}
	}
	gates[blocker] = make(chan struct{})
	opened := map[string]bool{}
	open := func(key string) {
		if !opened[key] {
			opened[key] = true
			close(gates[key])
		}
	}
	// A failed check must not leave Stop waiting on a parked update.
	defer func() { open(blocker); open("k") }()
	ingest := func(key string) { e.Ingest(event.Event{Stream: "S1", TS: 1, Key: key}) }
	awaitEntered := func(key string) {
		t.Helper()
		select {
		case got := <-entered:
			if got != key {
				t.Fatalf("invocation for %q, want %q", got, key)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("no invocation for %q", key)
		}
	}

	// The blocker parks the primary; five more of it follow it there,
	// deep enough that k spills onto its secondary and parks that too.
	ingest(blocker)
	awaitEntered(blocker)
	for i := 0; i < 5; i++ {
		ingest(blocker)
	}
	ingest("k")
	awaitEntered("k")
	if n := m.Queues[s].Queue().Len(); n != 0 {
		t.Fatalf("secondary queue holds %d events, want k running on it", n)
	}
	// Release the primary and let it empty its queue.
	open(blocker)
	for i := 0; i < 5; i++ {
		awaitEntered(blocker)
	}
	if n := m.Queues[p].Queue().Len(); n != 0 {
		t.Fatalf("primary queue holds %d events, want 0", n)
	}

	ingest("k")
	if np, ns := m.Queues[p].Queue().Len(), m.Queues[s].Queue().Len(); np != 0 || ns != 1 {
		t.Fatalf("further k queued primary=%d secondary=%d, want it behind the running k on the secondary", np, ns)
	}
	open("k")
	e.Drain()
}

func TestCentralCacheSharedAcrossThreads(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1, ThreadsPerMachine: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 100; i++ {
		e.Ingest(checkin(i+1, fmt.Sprintf("r%d", i%10)))
	}
	e.Drain()
	if n := metric(t, e, "muppet_slate_cache_size"); n != 10 {
		t.Fatalf("central cache holds %v slates, want 10", n)
	}
}

func TestMachineCrashFailover(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	e, err := New(counterApp(), Config{
		Machines: 4, ThreadsPerMachine: 2,
		Store: store, StoreLevel: kvstore.Quorum,
		FlushPolicy: slate.WriteThrough,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 50; i++ {
		e.Ingest(checkin(i+1, "walmart"))
	}
	e.Drain()
	owner := e.MachineFor("U1", "walmart")
	e.CrashMachine(owner)
	e.Ingest(checkin(51, "walmart")) // lost; triggers detection
	e.Drain()
	if after := e.MachineFor("U1", "walmart"); after == owner {
		t.Fatalf("key still routed to crashed machine %s", after)
	}
	e.Ingest(checkin(52, "walmart"))
	e.Drain()
	if got := string(e.Slate("U1", "walmart")); got != "51" {
		t.Fatalf("count after failover = %q, want 51 (50 flushed + 1 new, 1 lost)", got)
	}
	if e.Stats().LostMachineDown == 0 {
		t.Fatal("crash lost no events?")
	}
}

func TestSlateTTLConfiguredPerUpdater(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		emit.ReplaceSlate([]byte("v"))
	}}
	app := core.NewApp("ttl").Input("S1").AddUpdate(u, []string{"S1"}, nil, time.Minute)
	e, err := New(app, Config{Machines: 1, Store: store, StoreLevel: kvstore.One, FlushPolicy: slate.WriteThrough})
	if err != nil {
		t.Fatal(err)
	}
	e.Ingest(event.Event{Stream: "S1", TS: 1, Key: "k"})
	e.Drain()
	e.Stop()
	// The row must carry the updater's TTL.
	n := store.Node("node-00")
	_, row, found, _ := n.Get("k", "U")
	if !found || row.TTL != time.Minute {
		t.Fatalf("row TTL = %v found=%v, want 1m", row.TTL, found)
	}
}

func TestIntervalFlushHappensInBackground(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	e, err := New(counterApp(), Config{
		Machines: 1,
		Store:    store, StoreLevel: kvstore.One,
		FlushPolicy:   slate.Interval,
		FlushInterval: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Ingest(checkin(1, "walmart"))
	e.Drain()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, found, _, _ := store.Get("walmart", "U1", kvstore.One); found {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("background flusher never persisted the slate")
}

func TestOverflowPolicies(t *testing.T) {
	mkApp := func() *core.App {
		slow := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
			time.Sleep(time.Millisecond)
			emit.ReplaceSlate([]byte("x"))
		}}
		return core.NewApp("slow").Input("S1").AddUpdate(slow, []string{"S1"}, nil, 0)
	}
	t.Run("drop", func(t *testing.T) {
		e, err := New(mkApp(), Config{Machines: 1, ThreadsPerMachine: 1, QueueCapacity: 2, QueuePolicy: queue.Drop})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		for i := 0; i < 50; i++ {
			e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
		}
		e.Drain()
		s := e.Stats()
		if s.LostOverflow == 0 {
			t.Fatal("nothing dropped")
		}
		if s.Processed+s.LostOverflow != 50 {
			t.Fatalf("conservation violated: %+v", s)
		}
	})
	t.Run("throttle", func(t *testing.T) {
		e, err := New(mkApp(), Config{Machines: 1, ThreadsPerMachine: 1, QueueCapacity: 2, QueuePolicy: queue.Block})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Stop()
		for i := 0; i < 30; i++ {
			e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "hot"})
		}
		e.Drain()
		s := e.Stats()
		if s.LostOverflow != 0 {
			t.Fatalf("throttled source lost %d events", s.LostOverflow)
		}
		if s.Processed != 30 {
			t.Fatalf("Processed = %d, want 30", s.Processed)
		}
	})
}

func TestLargestQueuesReported(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.LargestQueues()
	if len(m) != 2 {
		t.Fatalf("LargestQueues for %d machines, want 2", len(m))
	}
}

func TestMultiStageWorkflowAndOutputs(t *testing.T) {
	// A 3-stage pipeline resembling the hot-topics app (Fig. 1c):
	// M1 fans tweets out to topics, U1 counts, and on every 5th event
	// per topic U1 emits to S3; U2 records them.
	m1 := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) {
		emit.Publish("S2", string(in.Value), nil)
	}}
	u1 := core.UpdateFunc{FName: "U1", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		n++
		emit.ReplaceSlate([]byte(strconv.Itoa(n)))
		if n%5 == 0 {
			emit.Publish("S3", in.Key, []byte(strconv.Itoa(n)))
		}
	}}
	u2 := core.UpdateFunc{FName: "U2", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		emit.ReplaceSlate(in.Value)
	}}
	app := core.NewApp("pipeline").
		Input("S1").
		Output("S3").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, []string{"S3"}, 0).
		AddUpdate(u2, []string{"S3"}, nil, 0)
	e, err := New(app, Config{Machines: 3, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	sub := e.Subscribe("S3", 16)
	for i := 0; i < 25; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: "t", Value: []byte("sports")})
	}
	e.Drain()
	if got := len(sub.C()); got != 5 {
		t.Fatalf("S3 events = %d, want 5 (every 5th of 25)", got)
	}
	if got := string(e.Slate("U2", "sports")); got != "25" {
		t.Fatalf("U2 slate = %q, want last milestone 25", got)
	}
}

func TestSlateCachedVsStoreFallback(t *testing.T) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	e, err := New(counterApp(), Config{
		Machines: 1, CacheCapacity: 2,
		Store: store, StoreLevel: kvstore.One, FlushPolicy: slate.OnEvict,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 10; i++ {
		e.Ingest(checkin(i+1, fmt.Sprintf("r%d", i)))
	}
	e.Drain()
	// Most slates were evicted from the size-2 cache...
	evicted := 0
	for i := 0; i < 10; i++ {
		if _, ok := e.SlateCached("U1", fmt.Sprintf("r%d", i)); !ok {
			evicted++
		}
	}
	if evicted < 5 {
		t.Fatalf("only %d slates evicted; cache not exercised", evicted)
	}
	// ...but Slate still reads them through the store.
	for i := 0; i < 10; i++ {
		if got := string(e.Slate("U1", fmt.Sprintf("r%d", i))); got != "1" {
			t.Fatalf("r%d = %q, want 1", i, got)
		}
	}
}

func TestIngestNonInputPanics(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Ingest(event.Event{Stream: "S2"})
}

func TestStopIdempotent(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	e.Ingest(checkin(1, "walmart"))
	e.Stop()
	e.Stop()
}

func TestSpillHelper(t *testing.T) {
	// Spill when primary > 2*secondary + 4.
	if spill(4, 0) {
		t.Fatal("4 vs 0: below threshold, must not spill")
	}
	if !spill(5, 0) {
		t.Fatal("5 vs 0: above threshold, must spill")
	}
	if spill(10, 3) {
		t.Fatal("10 vs 3: 10 <= 2*3+4, must not spill")
	}
	if !spill(11, 3) {
		t.Fatal("11 vs 3: 11 > 2*3+4, must spill")
	}
}
