package queue

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
	"time"

	"muppet/internal/event"
)

func ev(i int) event.Event {
	return event.Event{Stream: "s", Seq: uint64(i), Key: fmt.Sprintf("k%d", i)}
}

// put and offer hand the queue a frame of one: the waiting and the
// non-waiting enqueue, as a single-element producer sees them.
func put(q *Queue[event.Event], e event.Event) error {
	_, err := q.PutBatch([]event.Event{e})
	return err
}

func offer(q *Queue[event.Event], e event.Event) error {
	_, err := q.OfferBatch([]event.Event{e})
	return err
}

func TestFIFOOrder(t *testing.T) {
	q := New[event.Event](10, Drop)
	for i := 0; i < 5; i++ {
		if err := put(q, ev(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		e, err := q.Get()
		if err != nil {
			t.Fatal(err)
		}
		if e.Seq != uint64(i) {
			t.Fatalf("got seq %d, want %d", e.Seq, i)
		}
	}
}

func TestDropPolicyRejectsWhenFull(t *testing.T) {
	q := New[event.Event](2, Drop)
	put(q, ev(0))
	put(q, ev(1))
	if err := put(q, ev(2)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("Put on full queue = %v, want ErrOverflow", err)
	}
	s := q.Stats()
	if s.Dropped != 1 || s.Accepted != 2 || s.Offered != 3 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDivertPolicyCountsSeparately(t *testing.T) {
	q := New[event.Event](1, Divert)
	put(q, ev(0))
	if err := put(q, ev(1)); !errors.Is(err, ErrOverflow) {
		t.Fatalf("want ErrOverflow, got %v", err)
	}
	s := q.Stats()
	if s.Diverted != 1 || s.Dropped != 0 {
		t.Fatalf("stats = %+v, want 1 diverted", s)
	}
}

func TestBlockPolicyWaitsForSpace(t *testing.T) {
	q := New[event.Event](1, Block)
	put(q, ev(0))
	done := make(chan error, 1)
	go func() { done <- put(q, ev(1)) }()
	select {
	case <-done:
		t.Fatal("Put returned before space freed")
	case <-time.After(20 * time.Millisecond):
	}
	if _, err := q.Get(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked Put never completed")
	}
	if s := q.Stats(); s.Blocked != 1 {
		t.Fatalf("Blocked = %d, want 1", s.Blocked)
	}
}

// TestOfferNeverWaits: Offer is the workers' own enqueue — whatever the
// policy, a full queue rejects at once (a worker waiting on its own
// full queue would never be freed), counted by the policy's own counter
// and by Dropped under Block.
func TestOfferNeverWaits(t *testing.T) {
	for _, tc := range []struct {
		policy OverflowPolicy
		want   Stats
	}{
		{Block, Stats{Offered: 2, Accepted: 1, Dropped: 1, MaxDepth: 1}},
		{Drop, Stats{Offered: 2, Accepted: 1, Dropped: 1, MaxDepth: 1}},
		{Divert, Stats{Offered: 2, Accepted: 1, Diverted: 1, MaxDepth: 1}},
	} {
		q := New[event.Event](1, tc.policy)
		if err := offer(q, ev(0)); err != nil {
			t.Fatalf("%v: Offer with room = %v", tc.policy, err)
		}
		if err := offer(q, ev(1)); !errors.Is(err, ErrOverflow) {
			t.Fatalf("%v: Offer on full queue = %v, want ErrOverflow", tc.policy, err)
		}
		if s := q.Stats(); s != tc.want {
			t.Fatalf("%v: stats = %+v, want %+v", tc.policy, s, tc.want)
		}
		q.Close()
		if err := offer(q, ev(2)); !errors.Is(err, ErrClosed) {
			t.Fatalf("%v: Offer on closed queue = %v, want ErrClosed", tc.policy, err)
		}
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	q := New[event.Event](1, Drop)
	got := make(chan event.Event, 1)
	go func() {
		e, _ := q.Get()
		got <- e
	}()
	time.Sleep(10 * time.Millisecond)
	put(q, ev(7))
	select {
	case e := <-got:
		if e.Seq != 7 {
			t.Fatalf("seq = %d, want 7", e.Seq)
		}
	case <-time.After(time.Second):
		t.Fatal("Get never returned")
	}
}

func TestTryGetNonBlocking(t *testing.T) {
	q := New[event.Event](1, Drop)
	if _, ok := q.TryGet(); ok {
		t.Fatal("TryGet on empty queue returned ok")
	}
	put(q, ev(1))
	e, ok := q.TryGet()
	if !ok || e.Seq != 1 {
		t.Fatalf("TryGet = %v, %v", e, ok)
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	q := New[event.Event](4, Drop)
	put(q, ev(0))
	put(q, ev(1))
	q.Close()
	if _, err := q.Get(); err != nil {
		t.Fatalf("Get of buffered event after close = %v", err)
	}
	if _, err := q.Get(); err != nil {
		t.Fatalf("Get of buffered event after close = %v", err)
	}
	if _, err := q.Get(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get on drained closed queue = %v, want ErrClosed", err)
	}
	if err := put(q, ev(2)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put on closed queue = %v, want ErrClosed", err)
	}
}

func TestCloseUnblocksBlockedProducer(t *testing.T) {
	q := New[event.Event](1, Block)
	put(q, ev(0))
	done := make(chan error, 1)
	go func() { done <- put(q, ev(1)) }()
	time.Sleep(10 * time.Millisecond)
	q.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("blocked Put after close = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("blocked producer never released")
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	q := New[event.Event](1, Drop)
	q.Close()
	q.Close()
}

func TestWraparound(t *testing.T) {
	q := New[event.Event](3, Drop)
	for round := 0; round < 10; round++ {
		for i := 0; i < 3; i++ {
			if err := put(q, ev(round*3+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			e, err := q.Get()
			if err != nil {
				t.Fatal(err)
			}
			if e.Seq != uint64(round*3+i) {
				t.Fatalf("round %d: got %d, want %d", round, e.Seq, round*3+i)
			}
		}
	}
}

// TestNewAllocatesSmallRing pins that a queue's memory follows its
// depth, not its bound: at 128 bytes an element, a full 1<<16 ring
// would be 8 MiB up front.
func TestNewAllocatesSmallRing(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	q := New[[128]byte](1<<16, Drop)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(q)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("New(1<<16) allocated %d bytes, want <= 64 KiB", n)
	}
	if q.Cap() != 1<<16 {
		t.Fatalf("Cap() = %d, want %d", q.Cap(), 1<<16)
	}
}

// TestRingModel runs random batched puts and offers, gets, try-gets and
// a final drain against a slice, at a capacity that makes the ring both
// wrap and grow (256 → 512 → 1000) with its head anywhere: order,
// admission at the capacity, depth and MaxDepth must match the model.
func TestRingModel(t *testing.T) {
	const capacity = 1000
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		q := New[int](capacity, Drop)
		var model []int
		next, maxDepth := 0, 0
		for op := 0; op < 2000; op++ {
			switch k := rng.IntN(10); {
			case k < 4:
				es := make([]int, 1+rng.IntN(64))
				for i := range es {
					es[i] = next
					next++
				}
				put := q.PutBatch
				if k%2 == 1 {
					put = q.OfferBatch
				}
				n, err := put(es)
				if want := min(len(es), capacity-len(model)); n != want || (n < len(es)) != errors.Is(err, ErrOverflow) {
					t.Fatalf("trial %d op %d: accepted %d (err %v) of %d at depth %d, want %d", trial, op, n, err, len(es), len(model), want)
				}
				model = append(model, es[:n]...)
				maxDepth = max(maxDepth, len(model))
			case k < 7:
				for n := rng.IntN(48); n > 0 && len(model) > 0; n-- {
					e, err := q.Get()
					if err != nil || e != model[0] {
						t.Fatalf("trial %d op %d: Get = %d, %v; want %d", trial, op, e, err, model[0])
					}
					model = model[1:]
				}
			default:
				e, ok := q.TryGet()
				if ok != (len(model) > 0) || ok && e != model[0] {
					t.Fatalf("trial %d op %d: TryGet = %d, %v; model %v", trial, op, e, ok, model[:min(len(model), 1)])
				}
				if ok {
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				t.Fatalf("trial %d op %d: Len = %d, want %d", trial, op, q.Len(), len(model))
			}
		}
		if got := q.Drain(); fmt.Sprint(got) != fmt.Sprint(model) {
			t.Fatalf("trial %d: Drain = %v, want %v", trial, got, model)
		}
		if st := q.Stats(); st.MaxDepth != maxDepth {
			t.Fatalf("trial %d: MaxDepth = %d, want %d", trial, st.MaxDepth, maxDepth)
		}
	}
}

func TestStatsConservation(t *testing.T) {
	q := New[event.Event](8, Drop)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, ok := q.TryGet(); !ok {
				select {
				case <-stop:
					return
				default:
				}
			}
		}
	}()
	const producers, per = 4, 500
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func(p int) {
			defer pwg.Done()
			for i := 0; i < per; i++ {
				put(q, ev(p*per+i))
			}
		}(p)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()
	s := q.Stats()
	if s.Offered != producers*per {
		t.Fatalf("Offered = %d, want %d", s.Offered, producers*per)
	}
	if s.Accepted+s.Dropped+s.Diverted != s.Offered {
		t.Fatalf("conservation violated: %+v", s)
	}
	if s.MaxDepth > q.Cap() {
		t.Fatalf("MaxDepth %d exceeds capacity %d", s.MaxDepth, q.Cap())
	}
}

func TestPolicyString(t *testing.T) {
	cases := map[OverflowPolicy]string{Drop: "drop", Divert: "divert", Block: "block", OverflowPolicy(99): "unknown"}
	for p, want := range cases {
		if p.String() != want {
			t.Fatalf("String(%d) = %s, want %s", p, p.String(), want)
		}
	}
}

func TestNewPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[event.Event](0, Drop)
}

func TestPutBatchAcceptsWithinCapacity(t *testing.T) {
	q := New[int](8, Drop)
	n, err := q.PutBatch([]int{1, 2, 3, 4})
	if n != 4 || err != nil {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	for want := 1; want <= 4; want++ {
		got, err := q.Get()
		if err != nil || got != want {
			t.Fatalf("Get = %d, %v; want %d", got, err, want)
		}
	}
	st := q.Stats()
	if st.Offered != 4 || st.Accepted != 4 || st.MaxDepth != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutBatchDropRejectsRemainder(t *testing.T) {
	q := New[int](3, Drop)
	n, err := q.PutBatch([]int{1, 2, 3, 4, 5})
	if n != 3 || err != ErrOverflow {
		t.Fatalf("PutBatch = %d, %v; want 3, ErrOverflow", n, err)
	}
	st := q.Stats()
	if st.Offered != 5 || st.Accepted != 3 || st.Dropped != 2 {
		t.Fatalf("stats conservation broken: %+v", st)
	}
}

func TestPutBatchDivertCountsRemainder(t *testing.T) {
	q := New[int](2, Divert)
	n, err := q.PutBatch([]int{1, 2, 3})
	if n != 2 || err != ErrOverflow {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	st := q.Stats()
	if st.Diverted != 1 || st.Offered != st.Accepted+st.Dropped+st.Diverted {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPutBatchBlockWaitsForConsumer(t *testing.T) {
	q := New[int](2, Block)
	consumed := make(chan int, 16)
	go func() {
		for {
			v, err := q.Get()
			if err != nil {
				close(consumed)
				return
			}
			consumed <- v
		}
	}()
	n, err := q.PutBatch([]int{1, 2, 3, 4, 5, 6})
	if n != 6 || err != nil {
		t.Fatalf("PutBatch = %d, %v", n, err)
	}
	q.Close()
	var got []int
	for v := range consumed {
		got = append(got, v)
	}
	if len(got) != 6 {
		t.Fatalf("consumed %v", got)
	}
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestPutBatchBlockWakesParkedConsumer(t *testing.T) {
	// A consumer parked on an empty queue must be woken by a PutBatch
	// that fills the queue and then blocks for space, or both sides
	// deadlock.
	q := New[int](2, Block)
	got := make(chan int, 8)
	started := make(chan struct{})
	go func() {
		close(started)
		for {
			v, err := q.Get()
			if err != nil {
				close(got)
				return
			}
			got <- v
		}
	}()
	<-started
	done := make(chan struct{})
	go func() {
		q.PutBatch([]int{1, 2, 3, 4})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("PutBatch deadlocked against a parked consumer")
	}
	q.Close()
	n := 0
	for range got {
		n++
	}
	if n != 4 {
		t.Fatalf("consumed %d, want 4", n)
	}
}

func TestPutBatchOnClosedQueue(t *testing.T) {
	q := New[int](4, Drop)
	q.Close()
	n, err := q.PutBatch([]int{1, 2})
	if n != 0 || err != ErrClosed {
		t.Fatalf("PutBatch on closed = %d, %v", n, err)
	}
}

func TestPutBatchEmpty(t *testing.T) {
	q := New[int](4, Drop)
	if n, err := q.PutBatch(nil); n != 0 || err != nil {
		t.Fatalf("empty PutBatch = %d, %v", n, err)
	}
}

func TestPutBatchOverflowStillWakesParkedConsumer(t *testing.T) {
	// A consumer parked on an empty queue, then a batch that both
	// fills the queue and overflows it under Drop: the accepted
	// elements must wake the consumer even though PutBatch returns
	// through the overflow path.
	q := New[int](2, Drop)
	got := make(chan int, 8)
	started := make(chan struct{})
	go func() {
		close(started)
		for {
			v, err := q.Get()
			if err != nil {
				close(got)
				return
			}
			got <- v
		}
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the consumer park in Get
	n, err := q.PutBatch([]int{1, 2, 3, 4})
	if n != 2 || err != ErrOverflow {
		t.Fatalf("PutBatch = %d, %v; want 2, ErrOverflow", n, err)
	}
	for want := 1; want <= 2; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("consumed %d, want %d", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("consumer never woken for accepted elements")
		}
	}
	q.Close()
}

// TestOfferBatchBlockRejectsRemainder: the non-waiting batch under
// Block never parks — a full queue rejects the remainder with
// ErrOverflow, counted Dropped as under Drop — and a consumer parked on
// the empty queue is woken for what was accepted.
func TestOfferBatchBlockRejectsRemainder(t *testing.T) {
	q := New[int](2, Block)
	got := make(chan int, 8)
	started := make(chan struct{})
	go func() {
		close(started)
		for {
			v, err := q.Get()
			if err != nil {
				close(got)
				return
			}
			got <- v
		}
	}()
	<-started
	time.Sleep(10 * time.Millisecond) // let the consumer park in Get
	done := make(chan struct{})
	var n int
	var err error
	go func() {
		n, err = q.OfferBatch([]int{1, 2, 3, 4, 5})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("OfferBatch waited on a full queue under Block")
	}
	if n != 2 || err != ErrOverflow {
		t.Fatalf("OfferBatch = %d, %v; want 2, ErrOverflow", n, err)
	}
	for want := 1; want <= 2; want++ {
		select {
		case v := <-got:
			if v != want {
				t.Fatalf("consumed %d, want %d", v, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("consumer never woken for accepted elements")
		}
	}
	st := q.Stats()
	if st.Offered != 5 || st.Accepted != 2 || st.Dropped != 3 || st.Blocked != 0 ||
		st.Offered != st.Accepted+st.Dropped+st.Diverted {
		t.Fatalf("stats = %+v", st)
	}
	q.Close()
	if n, err := q.OfferBatch([]int{6, 7}); n != 0 || err != ErrClosed {
		t.Fatalf("OfferBatch on closed = %d, %v", n, err)
	}
}

// TestOfferBatchKeepsPolicyCounters: with room OfferBatch is PutBatch;
// without, Drop and Divert count the remainder as they always did.
func TestOfferBatchKeepsPolicyCounters(t *testing.T) {
	for _, tc := range []struct {
		policy OverflowPolicy
		want   Stats
	}{
		{Drop, Stats{Offered: 3, Accepted: 2, Dropped: 1, MaxDepth: 2}},
		{Divert, Stats{Offered: 3, Accepted: 2, Diverted: 1, MaxDepth: 2}},
		{Block, Stats{Offered: 3, Accepted: 2, Dropped: 1, MaxDepth: 2}},
	} {
		q := New[int](2, tc.policy)
		if n, err := q.OfferBatch([]int{1, 2, 3}); n != 2 || err != ErrOverflow {
			t.Fatalf("%v: OfferBatch = %d, %v", tc.policy, n, err)
		}
		if s := q.Stats(); s != tc.want {
			t.Fatalf("%v: stats = %+v, want %+v", tc.policy, s, tc.want)
		}
	}
}
