package engine2

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/queue"
)

// stripeKeys returns n distinct keys of updater U1 whose dispatch hashes
// all fall on one stripe of the slate-lock table — the adversarial
// layout, where keys of one thread set share a lock and keys of
// different sets must still not share one.
func stripeKeys(t *testing.T, n int) []string {
	t.Helper()
	stripe := func(k string) uint64 { return dispatchHash(fk{fn: "U1", key: k}) >> (64 - lockStripeBits) }
	want := stripe("seed")
	keys := []string{"seed"}
	for i := 0; len(keys) < n; i++ {
		if k := fmt.Sprintf("k%d", i); stripe(k) == want {
			keys = append(keys, k)
		}
		if i > 1_000_000 {
			t.Fatal("could not find keys on one stripe")
		}
	}
	return keys
}

// lockEngine returns a one-machine engine with 8 threads and its
// machine.
func lockEngine(t *testing.T, cfg Config) (*Engine, *machine) {
	t.Helper()
	cfg.Machines, cfg.ThreadsPerMachine = 1, 8
	e, err := New(counterApp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Stop)
	for _, m := range e.machines {
		return e, m
	}
	t.Fatal("no hosted machine")
	return nil, nil
}

func (e *Engine) lockOf(m *machine, key string) *slateLock {
	return e.slateLock(m, fk{fn: "U1", key: key})
}

// TestSlateLockTableMutualExclusion hammers the lock table with
// goroutines doing non-atomic read-modify-write under per-key locks, on
// keys that all fall on one stripe. Any mutual-exclusion hole shows up
// as a lost update (and as a data race under -race).
func TestSlateLockTableMutualExclusion(t *testing.T) {
	e, m := lockEngine(t, Config{})
	keys := stripeKeys(t, 16)
	counters := make([]int, len(keys)) // plain ints: the slate locks are the only guard
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				ki := (g + i) % len(keys)
				l := e.lockOf(m, keys[ki])
				l.acquire(nil)
				counters[ki]++
				l.release()
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counters {
		total += c
	}
	if total != goroutines*iters {
		t.Fatalf("lost updates: counted %d, want %d", total, goroutines*iters)
	}
	for i := range m.locks {
		if n := m.locks[i].owners.Load(); n != 0 {
			t.Fatalf("lock %d has %d owners after full release", i, n)
		}
	}
}

// TestSlateLockTableObservesContention: two holders of the same key
// are observed as 2 concurrent owners; holders of keys on the same
// stripe but of different thread sets hold different locks and do not
// inflate each other's count.
func TestSlateLockTableObservesContention(t *testing.T) {
	e, m := lockEngine(t, Config{})
	keys := stripeKeys(t, 64)
	var maxSeen atomic.Int32
	observe := func(n int32) {
		for {
			cur := maxSeen.Load()
			if n <= cur || maxSeen.CompareAndSwap(cur, n) {
				return
			}
		}
	}

	// Same key, second acquirer while the first holds: observed 2.
	l1 := e.lockOf(m, keys[0])
	l1.acquire(observe)
	done := make(chan struct{})
	go func() {
		l := e.lockOf(m, keys[0])
		l.acquire(observe)
		l.release()
		close(done)
	}()
	for maxSeen.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	l1.release()
	<-done

	// Keys on one stripe, of different thread sets, held concurrently:
	// each observes 1.
	other := ""
	for _, k := range keys[1:] {
		if e.lockOf(m, k) != e.lockOf(m, keys[0]) {
			other = k
			break
		}
	}
	if other == "" {
		t.Fatal("every key on the stripe shares one thread set")
	}
	maxSeen.Store(0)
	la, lb := e.lockOf(m, keys[0]), e.lockOf(m, other)
	la.acquire(observe)
	lb.acquire(observe)
	if got := maxSeen.Load(); got != 1 {
		t.Fatalf("keys of different thread sets observed contention %d, want 1", got)
	}
	la.release()
	lb.release()
}

// TestSlateLockAllocFree: taking and releasing a slate's lock is an
// index computation into a fixed table, allocating nothing.
func TestSlateLockAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	e, m := lockEngine(t, Config{})
	k := fk{fn: "U1", key: "hot"}
	observe := e.Counters().ObserveContention
	allocs := testing.AllocsPerRun(1000, func() {
		l := e.slateLock(m, k)
		l.acquire(observe)
		l.release()
	})
	if allocs != 0 {
		t.Fatalf("acquire plus release allocates %v objects per op, want 0", allocs)
	}
}

// TestOneStripeKeysContentionBound drives hot keys that all fall on one
// stripe through dual-queue dispatch on 8 threads: every key's count
// is exact (per-key mutual exclusion) and no lock ever had more than
// two owners, however the keys' thread sets overlap. With the single
// queue a lock belongs to one thread: contention 1.
func TestOneStripeKeysContentionBound(t *testing.T) {
	for _, single := range []bool{false, true} {
		t.Run(fmt.Sprintf("single=%v", single), func(t *testing.T) {
			e, _ := lockEngine(t, Config{QueueCapacity: 4096, QueuePolicy: queue.Block, DisableDualQueue: single})
			keys := stripeKeys(t, 12)
			const perKey = 500
			for i := 0; i < perKey*len(keys); i++ {
				e.Ingest(checkin(i+1, keys[i%len(keys)]))
			}
			e.Drain()
			for _, k := range keys {
				if got := string(e.Slate("U1", k)); got != strconv.Itoa(perKey) {
					t.Fatalf("slate %s = %q, want %d", k, got, perKey)
				}
			}
			limit := int32(2)
			if single {
				limit = 1
			}
			if max := e.Stats().MaxSlateContention; max < 1 || max > limit {
				t.Fatalf("MaxSlateContention = %d, want 1..%d", max, limit)
			}
		})
	}
}

// TestDualQueueContentionBoundWithStripedLocks re-checks the paper's
// Muppet-2.0 invariant on top of the lock table: under dual-queue
// dispatch, at most two worker threads ever hold or wait for the same
// slate, however hot the key (Section 4.5). Run with -race in CI.
func TestDualQueueContentionBoundWithStripedLocks(t *testing.T) {
	e, err := New(counterApp(), Config{
		Machines:          1,
		ThreadsPerMachine: 8,
		QueueCapacity:     4096,
		QueuePolicy:       queue.Block,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	// 90% of events hammer 4 hot keys; spilling spreads a hot key over
	// its primary and secondary thread, never a third.
	for i := 0; i < 20_000; i++ {
		key := fmt.Sprintf("hot%d", i%4)
		if i%10 == 9 {
			key = fmt.Sprintf("cold%d", i)
		}
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: key, Value: []byte("checkin:" + key)})
	}
	e.Drain()
	max := e.Stats().MaxSlateContention
	if max > 2 {
		t.Fatalf("MaxSlateContention = %d, want <= 2 (dual-queue bound)", max)
	}
	if max < 1 {
		t.Fatalf("MaxSlateContention = %d: no slate update observed at all", max)
	}
}
