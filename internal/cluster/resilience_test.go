package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"muppet/internal/event"
)

// scriptedTransport scripts SendBatch outcomes by call number (1-based)
// for retry-loop tests.
type scriptedTransport struct {
	mu    sync.Mutex
	calls int
	ids   []BatchID
	fn    func(call int) error
}

func (s *scriptedTransport) SendBatch(machine string, id BatchID, ds []Delivery) (int, []BatchReject, error) {
	s.mu.Lock()
	s.calls++
	call := s.calls
	s.ids = append(s.ids, id)
	s.mu.Unlock()
	if err := s.fn(call); err != nil {
		return 0, nil, err
	}
	return len(ds), nil, nil
}

func (s *scriptedTransport) Name() string { return "scripted" }
func (s *scriptedTransport) Close() error { return nil }

func (s *scriptedTransport) callCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls
}

func retryTestCluster(tr Transport, attempts int) *Cluster {
	return New(Config{
		Names:     []string{"machine-00", "machine-01"},
		Local:     []string{"machine-00"},
		Transport: tr,
		Retry:     RetryConfig{Attempts: attempts},
	})
}

// A transient blip heals inside the retry budget: the send succeeds,
// the caller never sees an error, and no liveness presumption flips —
// the pinned behavior that a single blip must not trigger failover.
func TestRetryRecoversTransientBlip(t *testing.T) {
	tr := &scriptedTransport{fn: func(call int) error {
		if call < 3 {
			return transientErr("test-blip", nil)
		}
		return nil
	}}
	c := retryTestCluster(tr, 3)
	defer c.Close()

	if err := sendOne(c, "machine-01", "w", event.Event{Key: "k"}); err != nil {
		t.Fatalf("send across a 2-attempt blip: %v", err)
	}
	if got := tr.callCount(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	// Every attempt must reuse the same BatchID, or receiver dedup has
	// nothing to key on.
	for i, id := range tr.ids {
		if id != tr.ids[0] {
			t.Fatalf("attempt %d used id %+v, want %+v", i, id, tr.ids[0])
		}
	}
	if !tr.ids[0].sequenced() {
		t.Fatalf("remote batch id %+v is unsequenced", tr.ids[0])
	}
	if !c.Machine("machine-01").Alive() {
		t.Fatal("a healed blip flipped the liveness presumption")
	}
	st := c.DeliveryStats()
	if st.Retries != 2 || st.TransientErrors != 2 || st.RetryExhausted != 0 {
		t.Fatalf("stats = %+v, want 2 retries / 2 transient / 0 exhausted", st)
	}
}

// Exhausting the budget surfaces the transient error (for the
// suspicion window to judge) without flipping liveness.
func TestRetryExhaustion(t *testing.T) {
	tr := &scriptedTransport{fn: func(call int) error { return transientErr("test-blip", nil) }}
	c := retryTestCluster(tr, 3)
	defer c.Close()

	err := sendOne(c, "machine-01", "w", event.Event{Key: "k"})
	if !IsTransient(err) {
		t.Fatalf("exhausted retries: err = %v, want the transient fault", err)
	}
	if got := tr.callCount(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if !c.Machine("machine-01").Alive() {
		t.Fatal("exhausted retries flipped the liveness presumption; that is the detector's call")
	}
	if st := c.DeliveryStats(); st.RetryExhausted != 1 || st.IndeterminateLost != 0 {
		t.Fatalf("stats = %+v, want 1 exhausted, 0 indeterminate (every attempt failed before the wire)", st)
	}
}

// An exhausted budget where some attempt got the whole request out —
// a lost response — is flagged indeterminate: the sender will report
// the events lost, but the receiver may have applied them, and
// DeliveryStats.IndeterminateLost bounds that overcount exactly.
func TestRetryExhaustionIndeterminate(t *testing.T) {
	tr := &scriptedTransport{fn: func(call int) error {
		if call == 2 {
			return transientErrIndet("test-lost-response", nil)
		}
		return transientErr("test-blip", nil)
	}}
	c := retryTestCluster(tr, 3)
	defer c.Close()

	err := sendOne(c, "machine-01", "w", event.Event{Key: "k"})
	if !IsTransient(err) {
		t.Fatalf("exhausted retries: err = %v, want the transient fault", err)
	}
	st := c.DeliveryStats()
	if st.RetryExhausted != 1 || st.IndeterminateLost != 1 {
		t.Fatalf("stats = %+v, want 1 exhausted / 1 indeterminate-lost event", st)
	}
	if !IsIndeterminate(transientErrIndet("x", nil)) || IsIndeterminate(transientErr("x", nil)) {
		t.Fatal("IsIndeterminate misclassifies")
	}
}

// A fatal answer is never retried: detect-on-send stays immediate.
func TestRetryFatalFailsImmediately(t *testing.T) {
	tr := &scriptedTransport{fn: func(call int) error { return ErrMachineDown }}
	c := retryTestCluster(tr, 5)
	defer c.Close()

	if err := sendOne(c, "machine-01", "w", event.Event{}); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("err = %v, want ErrMachineDown", err)
	}
	if got := tr.callCount(); got != 1 {
		t.Fatalf("attempts = %d, want 1: fatal errors must not be retried", got)
	}
	if c.Machine("machine-01").Alive() {
		t.Fatal("authoritative machine-down must flip the presumption")
	}
}

// inprocPair wires two nodes over InProc, optionally wrapping the
// sender's view in chaos, and installs a counting handler on the host.
func inprocPair(t *testing.T, wrap func(Transport) Transport, retry RetryConfig) (sender, host *Cluster, applied *map[string]int, mu *sync.Mutex) {
	t.Helper()
	names := []string{"machine-00", "machine-01"}
	reg := NewInProc()
	var senderTr Transport = reg
	if wrap != nil {
		senderTr = wrap(reg)
	}
	host = New(Config{Names: names, Local: []string{"machine-01"}, Transport: reg, Node: "node-b"})
	sender = New(Config{Names: names, Local: []string{"machine-00"}, Transport: senderTr, Node: "node-a", Retry: retry})
	reg.Register(host)
	reg.Register(sender)

	counts := make(map[string]int)
	var cmu sync.Mutex
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
		cmu.Lock()
		defer cmu.Unlock()
		for i := range ds {
			counts[ds[i].Ev.Key]++
		}
		return nil
	})
	t.Cleanup(func() { sender.Close(); host.Close() })
	return sender, host, &counts, &cmu
}

// A retry whose first attempt did land (lost response) must not
// double-apply: the receiver's window answers the retry from cache.
func TestDedupAbsorbsLostResponseRetry(t *testing.T) {
	wrap := func(inner Transport) Transport {
		return NewChaos(inner, ChaosConfig{
			Seed:                 1,
			DropResponse:         1.0, // every first attempt applies, then loses its answer
			MaxFaultsPerDelivery: 1,
		})
	}
	sender, host, counts, mu := inprocPair(t, wrap, RetryConfig{Attempts: 3})

	const n = 50
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if err := sendOne(sender, "machine-01", "w", event.Event{Key: key}); err != nil {
			t.Fatalf("send %s: %v", key, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for key, got := range *counts {
		if got != 1 {
			t.Fatalf("key %s applied %d times, want exactly once", key, got)
		}
	}
	if len(*counts) != n {
		t.Fatalf("applied %d keys, want %d", len(*counts), n)
	}
	st := host.DeliveryStats()
	if st.DedupHits != n {
		t.Fatalf("host dedup hits = %d, want %d (one absorbed retry per send)", st.DedupHits, n)
	}
	if ss := sender.DeliveryStats(); ss.Retries != n {
		t.Fatalf("sender retries = %d, want %d", ss.Retries, n)
	}
}

// Chaos duplicates of a successful exchange vanish into the window.
func TestDedupAbsorbsChaosDuplicates(t *testing.T) {
	var chaos *Chaos
	wrap := func(inner Transport) Transport {
		chaos = NewChaos(inner, ChaosConfig{Seed: 2, Duplicate: 1.0})
		return chaos
	}
	sender, host, counts, mu := inprocPair(t, wrap, RetryConfig{Attempts: 1})

	const n = 40
	for i := 0; i < n; i++ {
		if err := sendOne(sender, "machine-01", "w", event.Event{Key: fmt.Sprintf("k%d", i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for key, got := range *counts {
		if got != 1 {
			t.Fatalf("key %s applied %d times, want exactly once", key, got)
		}
	}
	if cs := chaos.Stats(); cs.Duplicates != n {
		t.Fatalf("injected duplicates = %d, want %d", cs.Duplicates, n)
	}
	if st := host.DeliveryStats(); st.DedupHits != n {
		t.Fatalf("host dedup hits = %d, want %d", st.DedupHits, n)
	}
}

// The dedup window is per sender incarnation: a higher epoch resets
// the window; a stale epoch applies uncached rather than colliding
// with the new incarnation's sequence numbers.
func TestDedupEpochBoundary(t *testing.T) {
	tab := newDedupTable(64)
	idA := BatchID{Sender: "node-a", Epoch: 10, Seq: 5}

	e, dup := tab.begin(idA)
	if dup || e == nil {
		t.Fatalf("first delivery: entry=%v dup=%v", e, dup)
	}
	e.commit(1, nil, nil)
	if _, dup := tab.begin(idA); !dup {
		t.Fatal("same id not deduplicated")
	}

	// Stale epoch: apply without caching, never a collision.
	if e, dup := tab.begin(BatchID{Sender: "node-a", Epoch: 9, Seq: 5}); dup || e != nil {
		t.Fatalf("stale epoch: entry=%v dup=%v, want uncached apply", e, dup)
	}

	// New incarnation resets the window: seq 5 is fresh again.
	e, dup = tab.begin(BatchID{Sender: "node-a", Epoch: 11, Seq: 5})
	if dup || e == nil {
		t.Fatalf("new epoch: entry=%v dup=%v, want fresh window", e, dup)
	}
	e.commit(1, nil, nil)
	if tab.size() != 1 {
		t.Fatalf("window size = %d, want 1 (old incarnation dropped whole)", tab.size())
	}
}

// Entries beyond the window are evicted so the table stays bounded.
func TestDedupWindowEviction(t *testing.T) {
	tab := newDedupTable(8)
	for seq := uint64(1); seq <= 100; seq++ {
		e, dup := tab.begin(BatchID{Sender: "node-a", Epoch: 1, Seq: seq})
		if dup {
			t.Fatalf("seq %d spuriously deduplicated", seq)
		}
		e.commit(1, nil, nil)
	}
	if n := tab.size(); n > 16 {
		t.Fatalf("window retained %d entries, want bounded near 8", n)
	}
}

// A long-lived receiver slides its window by a low watermark: through
// many windows of sequenced batches it never holds more than one window,
// a duplicate inside the window is absorbed with the original outcome,
// and a retry below it is applied uncached and leaves nothing resident.
func TestDedupWindowSlidesByWatermark(t *testing.T) {
	const window = 64
	tab := newDedupTable(window)
	id := func(seq uint64) BatchID { return BatchID{Sender: "node-a", Epoch: 1, Seq: seq} }
	const last = 50 * window
	for seq := uint64(1); seq <= last; seq++ {
		e, dup := tab.begin(id(seq))
		if dup || e == nil {
			t.Fatalf("seq %d: entry=%v dup=%v, want a fresh entry", seq, e, dup)
		}
		e.commit(int(seq), nil, nil)
		if n := tab.size(); n > window {
			t.Fatalf("seq %d: %d entries resident, want <= %d", seq, n, window)
		}
	}
	inside := uint64(last - window/2)
	if e, dup := tab.begin(id(inside)); !dup || e.accepted != int(inside) {
		t.Fatalf("duplicate of seq %d inside the window: entry=%+v dup=%v", inside, e, dup)
	}
	before := tab.size()
	if e, dup := tab.begin(id(last - window)); dup || e != nil {
		t.Fatalf("retry below the window: entry=%v dup=%v, want uncached apply", e, dup)
	}
	if n := tab.size(); n != before {
		t.Fatalf("retry below the window left %d entries, want %d", n, before)
	}
}

// The fault schedule is a pure function of the seed and the workload's
// batch identities: replaying the same single-threaded workload yields
// byte-identical chaos stats — the property that lets a failing soak
// seed be pinned as a regression test.
func TestChaosDeterminism(t *testing.T) {
	run := func() (ChaosStats, DeliveryStats) {
		var chaos *Chaos
		wrap := func(inner Transport) Transport {
			chaos = NewChaos(inner, ChaosConfig{
				Seed:                 42,
				FlakyDial:            0.2,
				DropRequest:          0.2,
				DropResponse:         0.3,
				Duplicate:            0.2,
				Delay:                0.3,
				MaxDelay:             100 * time.Microsecond,
				MaxFaultsPerDelivery: 2,
			})
			return chaos
		}
		sender, _, _, _ := inprocPair(t, wrap, RetryConfig{Attempts: 6})
		for i := 0; i < 200; i++ {
			sendOne(sender, "machine-01", "w", event.Event{Key: fmt.Sprintf("k%d", i)})
		}
		return chaos.Stats(), sender.DeliveryStats()
	}
	cs1, ds1 := run()
	cs2, ds2 := run()
	if cs1 != cs2 {
		t.Fatalf("chaos stats diverged across identical runs:\n  %+v\n  %+v", cs1, cs2)
	}
	if ds1.Retries != ds2.Retries || ds1.TransientErrors != ds2.TransientErrors || ds1.RetryExhausted != ds2.RetryExhausted {
		t.Fatalf("delivery stats diverged across identical runs:\n  %+v\n  %+v", ds1, ds2)
	}
	if cs1.Injected() == 0 {
		t.Fatal("schedule injected nothing; the determinism assertion is vacuous")
	}
}

// A scripted partition window drops every attempt inside it — a
// determinate loss the sender can account exactly — and traffic flows
// again past the window's edge.
func TestChaosPartitionWindow(t *testing.T) {
	var chaos *Chaos
	wrap := func(inner Transport) Transport {
		chaos = NewChaos(inner, ChaosConfig{
			Seed:       3,
			Partitions: []Partition{{Machine: "machine-01", From: 0, To: 6}},
		})
		return chaos
	}
	sender, _, counts, mu := inprocPair(t, wrap, RetryConfig{Attempts: 2})

	// 3 sends * 2 attempts = 6 partitioned attempts: all fail.
	for i := 0; i < 3; i++ {
		if err := sendOne(sender, "machine-01", "w", event.Event{Key: fmt.Sprintf("lost%d", i)}); !IsTransient(err) {
			t.Fatalf("partitioned send %d: err = %v, want transient", i, err)
		}
	}
	// Past the window the same path delivers.
	if err := sendOne(sender, "machine-01", "w", event.Event{Key: "healed"}); err != nil {
		t.Fatalf("send past partition window: %v", err)
	}
	if cs := chaos.Stats(); cs.PartitionDrops != 6 {
		t.Fatalf("partition drops = %d, want 6", cs.PartitionDrops)
	}
	mu.Lock()
	defer mu.Unlock()
	if (*counts)["healed"] != 1 || len(*counts) != 1 {
		t.Fatalf("applied keys = %v, want exactly {healed:1}", *counts)
	}
}

// Concurrent duplicate deliveries of one batch race begin/commit; the
// loser must wait for the winner's outcome, not re-apply.
func TestDedupConcurrentDuplicates(t *testing.T) {
	names := []string{"machine-00", "machine-01"}
	reg := NewInProc()
	host := New(Config{Names: names, Local: []string{"machine-01"}, Transport: reg})
	reg.Register(host)
	defer host.Close()

	var applies sync.Map
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
		for i := range ds {
			v, _ := applies.LoadOrStore(ds[i].Ev.Key, new(sync.Mutex))
			_ = v
			time.Sleep(100 * time.Microsecond) // widen the race window
		}
		return nil
	})

	const workers = 8
	id := BatchID{Sender: "node-a", Epoch: 1, Seq: 1}
	ds := []Delivery{{Worker: "w", Ev: event.Event{Key: "k"}}}
	var wg sync.WaitGroup
	accepted := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			a, _, err := host.DeliverLocal("machine-01", id, ds)
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
			accepted[w] = a
		}(w)
	}
	wg.Wait()
	for w, a := range accepted {
		if a != 1 {
			t.Fatalf("worker %d saw accepted=%d, want the cached outcome 1", w, a)
		}
	}
	if st := host.DeliveryStats(); st.DedupHits != workers-1 {
		t.Fatalf("dedup hits = %d, want %d", st.DedupHits, workers-1)
	}
	if recvs := host.Recvs(); recvs != 1 {
		t.Fatalf("recvs = %d, want 1: duplicates must not count as received batches", recvs)
	}
}

// TestChaosRollIndependentAcrossAttempts pins the finalizer in roll():
// the attempt number is the last bytes of the hashed identity, and raw
// FNV-64a barely diffuses them, so without extra mixing every retry of
// a batch re-rolls (within 2^-16) the same number — one dropped
// request becomes a guaranteed exhausted budget. With independent
// rolls, a batch whose first attempt is dropped at p=0.5 should
// usually see a differing verdict within its next few attempts.
func TestChaosRollIndependentAcrossAttempts(t *testing.T) {
	ch := NewChaos(&scriptedTransport{}, ChaosConfig{Seed: 99})
	const p = 0.5
	correlated := 0
	for seq := uint64(1); seq <= 200; seq++ {
		id := BatchID{Sender: "machine-00", Seq: seq}
		first := ch.roll("drop-req", "machine-01", id, 0) < p
		same := true
		for attempt := 1; attempt < 6; attempt++ {
			if (ch.roll("drop-req", "machine-01", id, attempt) < p) != first {
				same = false
				break
			}
		}
		if same {
			correlated++
		}
	}
	// Independent p=0.5 rolls agree on all 6 attempts with
	// probability 2^-5 per side: expect ~12/200, tolerate wide
	// variance. The broken pre-finalizer hash scored 200/200.
	if correlated > 40 {
		t.Fatalf("%d/200 batches rolled the same verdict on all 6 attempts: rolls are correlated across retries", correlated)
	}
}
