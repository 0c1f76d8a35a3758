package engine2

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// collidingKeys returns n distinct slate keys that all land on the
// same stripe of the lock table — the adversarial layout where
// per-key mutual exclusion must survive sharing one shard mutex.
func collidingKeys(t *testing.T, tab *slateLockTable, n int) []slate.Key {
	t.Helper()
	want := tab.shardFor(slate.Key{Updater: "U", Key: "seed"})
	keys := []slate.Key{{Updater: "U", Key: "seed"}}
	for i := 0; len(keys) < n; i++ {
		k := slate.Key{Updater: "U", Key: fmt.Sprintf("k%d", i)}
		if tab.shardFor(k) == want {
			keys = append(keys, k)
		}
		if i > 1_000_000 {
			t.Fatal("could not find colliding keys")
		}
	}
	return keys
}

// TestSlateLockTableMutualExclusion hammers a striped lock table with
// goroutines doing non-atomic read-modify-write under per-key locks —
// on keys deliberately colliding on one stripe. Any mutual-exclusion
// hole shows up as a lost update (and as a data race under -race).
func TestSlateLockTableMutualExclusion(t *testing.T) {
	tab := newSlateLockTable()
	keys := collidingKeys(t, tab, 4)
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
				l := tab.acquire(keys[ki], nil)
				counters[ki]++
				tab.release(keys[ki], l)
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
	// All locks released: every stripe's live map must be empty again.
	for i := range tab.shards {
		sh := &tab.shards[i]
		sh.mu.Lock()
		if len(sh.locks) != 0 {
			t.Fatalf("stripe %d retains %d live locks after full release", i, len(sh.locks))
		}
		sh.mu.Unlock()
	}
}

// TestSlateLockTableObservesContention: two holders of the same key
// must be observed as 2 concurrent owners; holders of different keys
// on the SAME stripe must not inflate each other's count — the
// striping must keep the accounting per key, not per stripe.
func TestSlateLockTableObservesContention(t *testing.T) {
	tab := newSlateLockTable()
	keys := collidingKeys(t, tab, 2)
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
	l1 := tab.acquire(keys[0], observe)
	done := make(chan struct{})
	go func() {
		l := tab.acquire(keys[0], observe)
		tab.release(keys[0], l)
		close(done)
	}()
	for maxSeen.Load() < 2 {
		time.Sleep(time.Millisecond)
	}
	tab.release(keys[0], l1)
	<-done

	// Distinct colliding keys held concurrently: each observes 1.
	maxSeen.Store(0)
	la := tab.acquire(keys[0], observe)
	lb := tab.acquire(keys[1], observe)
	if got := maxSeen.Load(); got != 1 {
		t.Fatalf("distinct keys on one stripe observed contention %d, want 1", got)
	}
	tab.release(keys[0], la)
	tab.release(keys[1], lb)
}

// TestSlateLockFreeListRecycles: steady acquire/release of the same
// key must reuse the retired slateLock instead of allocating fresh
// ones — the zero-allocation property of the hot path.
func TestSlateLockFreeListRecycles(t *testing.T) {
	tab := newSlateLockTable()
	k := slate.Key{Updater: "U", Key: "hot"}
	l1 := tab.acquire(k, nil)
	tab.release(k, l1)
	for i := 0; i < 100; i++ {
		l := tab.acquire(k, nil)
		if l != l1 {
			t.Fatalf("iteration %d allocated a fresh slateLock instead of recycling", i)
		}
		tab.release(k, l)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		l := tab.acquire(k, nil)
		tab.release(k, l)
	})
	if allocs != 0 {
		t.Fatalf("steady-state acquire/release allocates %v objects per op, want 0", allocs)
	}
}

// TestDualQueueContentionBoundWithStripedLocks re-checks the paper's
// Muppet-2.0 invariant on top of the striped lock table: under
// dual-queue dispatch, at most two worker threads ever hold or wait
// for the same slate, however hot the key (Section 4.5). Run with
// -race in CI.
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
