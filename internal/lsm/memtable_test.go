package lsm

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"muppet/internal/clock"
)

// mallocs counts the heap allocations f makes, on one P as
// testing.AllocsPerRun counts them.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// batchRows builds n rows whose values carry round, all the same length.
func batchRows(ck clock.Clock, n, round int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = Row{Key: fmt.Sprintf("user%04d\x00U1", i), Value: fmt.Appendf(nil, `{"count":%06d}`, round), WriteTime: ck.Now()}
	}
	return rows
}

// TestOverwriteAllocBudget: a Put that overwrites rows no reader was
// handed rewrites their values in place — nothing per row, whatever the
// batch size — and a LiveRows between two puts does not change that. The WAL's file growth is the only
// allocation left, a fraction of one per Put.
func TestOverwriteAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, n := range []int{1, 64, 512} {
		ck := clock.NewFake(t0)
		e := mustOpen(t, NewMemFS(), ck)
		if _, err := e.Put(batchRows(ck, n, 0)); err != nil {
			t.Fatal(err)
		}
		const rounds = 50
		batches := make([][]Row, rounds)
		for r := range batches {
			batches[r] = batchRows(ck, n, r+1)
		}
		for _, between := range []string{"", "LiveRows"} {
			var total uint64
			for _, rows := range batches {
				if between != "" {
					if _, err := e.LiveRows(); err != nil {
						t.Fatal(err)
					}
				}
				total += mallocs(func() {
					if _, err := e.Put(rows); err != nil {
						t.Fatal(err)
					}
				})
			}
			if total >= rounds {
				t.Errorf("%d overwrites of %d rows (%s between) allocated %d times, want < %d", rounds, n, between, total, rounds)
			}
		}
		e.Close()
	}
}

// TestReadersKeepTheirBytes: what Get returns and what a Scan callback
// is handed stay byte-identical however the rows are overwritten after,
// in place or not, flushed or compacted; and the engine keeps none of
// the bytes a Put was given.
func TestReadersKeepTheirBytes(t *testing.T) {
	ck := clock.NewFake(t0)
	e := mustOpen(t, NewMemFS(), ck)
	defer e.Close()
	given := batchRows(ck, 8, 0)
	if _, err := e.Put(given); err != nil {
		t.Fatal(err)
	}
	for _, r := range given {
		copy(r.Value, "garbage!")
	}
	type held struct{ got, want []byte }
	var kept []held
	r, ok, _, err := e.Get("user0000\x00U1")
	if err != nil || !ok || string(r.Value) != `{"count":000000}` {
		t.Fatalf("Get after the caller reused its bytes = %q, %v, %v", r.Value, ok, err)
	}
	kept = append(kept, held{r.Value, bytes.Clone(r.Value)})
	for round := 1; round <= 6; round++ {
		ck.Advance(1)
		if _, err := e.Put(batchRows(ck, 8, round)); err != nil {
			t.Fatal(err)
		}
		switch round {
		case 1:
			if err := e.Scan(func(r Row) bool { kept = append(kept, held{r.Value, bytes.Clone(r.Value)}); return true }); err != nil {
				t.Fatal(err)
			}
		case 2:
			if _, err := e.LiveRows(); err != nil {
				t.Fatal(err)
			}
		case 3:
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		case 5:
			if _, _, err := e.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		for i, h := range kept {
			if !bytes.Equal(h.got, h.want) {
				t.Fatalf("round %d: value %d handed out as %q now reads %q", round, i, h.want, h.got)
			}
		}
		if v, ok := visible(t, e, ck, "user0003\x00U1"); !ok || v != fmt.Sprintf(`{"count":%06d}`, round) {
			t.Fatalf("round %d: user0003 = %q, %v", round, v, ok)
		}
	}
}

// TestReadersKeepTheirBytesConcurrently runs the same contract across
// goroutines, for the race detector: readers hold what Get and Scan
// handed them while a writer overwrites the rows and gathers LiveRows.
func TestReadersKeepTheirBytesConcurrently(t *testing.T) {
	ck := clock.NewFake(t0)
	e := mustOpen(t, NewMemFS(), ck)
	defer e.Close()
	const n = 16
	if _, err := e.Put(batchRows(ck, n, 0)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for round := 1; ; round++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := e.Put(batchRows(ck, n, round)); err != nil {
				t.Error(err)
				return
			}
			if _, err := e.LiveRows(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		var got, want [][]byte
		r, ok, _, err := e.Get(fmt.Sprintf("user%04d\x00U1", i%n))
		if err != nil || !ok {
			t.Fatalf("Get: %v, %v", ok, err)
		}
		got, want = append(got, r.Value), append(want, bytes.Clone(r.Value))
		if err := e.Scan(func(r Row) bool {
			got, want = append(got, r.Value), append(want, bytes.Clone(r.Value))
			return len(got) < 4
		}); err != nil {
			t.Fatal(err)
		}
		runtime.Gosched()
		for j := range got {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("value handed out as %q now reads %q", want[j], got[j])
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestMemtableNewRowsAllocBudget: a new row's key and value are a slot
// carved from a chunk the memtable owns, so n new rows allocate the
// chunks they fill, not a buffer each.
func TestMemtableNewRowsAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 1024
	ck := clock.NewFake(t0)
	rows := batchRows(ck, n, 0)
	// The row list and the index are sized for n up front: what is
	// measured is the rows' own bytes.
	m := &memtable{rows: make([]memRow, 0, n), index: make(map[string]int, n), fresh: make([]int, 0, n)}
	allocs := mallocs(func() {
		for _, r := range rows {
			m.put(r)
		}
	})
	if allocs > n/32+1 {
		t.Fatalf("%d new rows allocated %d times, want <= %d", n, allocs, n/32+1)
	}
	if m.len() != n {
		t.Fatalf("%d rows, want %d", m.len(), n)
	}
}

// TestCarvedRowsKeepTheirBytes: a row Get or a Scan handed out keeps
// its key and value while later puts carve the rest of its chunk, while
// it is overwritten, after the holder appends to it, and after the
// memtable it was carved from is flushed and dropped.
func TestCarvedRowsKeepTheirBytes(t *testing.T) {
	ck := clock.NewFake(t0)
	e := mustOpen(t, NewMemFS(), ck)
	defer e.Close()
	type held struct {
		key, wantKey string
		got, want    []byte
	}
	var kept []held
	hold := func(r Row) {
		kept = append(kept, held{r.Key, strings.Clone(r.Key), r.Value, bytes.Clone(r.Value)})
	}
	check := func(when string) {
		t.Helper()
		for i, h := range kept {
			if h.key != h.wantKey || !bytes.Equal(h.got, h.want) {
				t.Fatalf("%s: row %d handed out as %q=%q now reads %q=%q", when, i, h.wantKey, h.want, h.key, h.got)
			}
		}
	}
	put := func(rows []Row) {
		t.Helper()
		if _, err := e.Put(rows); err != nil {
			t.Fatal(err)
		}
	}
	put(batchRows(ck, 4, 0))
	for round := 1; round <= 6; round++ {
		r, ok, _, err := e.Get(fmt.Sprintf("user%04d\x00U1", round%4))
		if err != nil || !ok {
			t.Fatalf("Get: %v, %v", ok, err)
		}
		hold(r)
		// A holder's append must not reach the next slot.
		_ = append(r.Value, "garbage"...)
		if err := e.Scan(func(r Row) bool { hold(r); return true }); err != nil {
			t.Fatal(err)
		}
		// New keys carve the rest of the chunk; the held rows are
		// overwritten with values of the same length and longer.
		ck.Advance(1)
		fresh := make([]Row, 64)
		for i := range fresh {
			fresh[i] = Row{Key: fmt.Sprintf("new%02d-%04d", round, i), Value: bytes.Repeat([]byte{'n'}, 8+i%24), WriteTime: ck.Now()}
		}
		put(fresh)
		put(batchRows(ck, 4, round))
		long := batchRows(ck, 2, round)
		for i := range long {
			long[i].Value = append(long[i].Value, "-and-longer-than-before"...)
		}
		put(long)
		check(fmt.Sprintf("round %d", round))
		if round%3 == 0 {
			if _, err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			check(fmt.Sprintf("round %d, after a flush", round))
		}
	}
}
