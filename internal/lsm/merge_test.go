package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/clock"
)

// modelRow is the newest write of one key in the differential model.
type modelRow struct {
	value     []byte
	written   time.Time
	ttl       time.Duration
	tombstone bool
}

// TestScanMatchesModel drives random sequences of puts, tombstones, TTL
// puts, clock advances, flushes, compactions and reopens, and after
// every step checks that Scan and LiveRows equal a map-plus-sort model
// of the same writes — including a Scan stopped early at a random row.
func TestScanMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runScanModel(t, seed, 150) })
	}
}

func runScanModel(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	fs := NewMemFS()
	ck := clock.NewFake(t0)
	opt := testOptions(fs, ck)
	opt.MemtableFlushBytes = 16 << 10 // some flushes come from Put itself
	e, err := Open("/db", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { e.Close() }()
	model := map[string]modelRow{}

	value := func() []byte {
		switch rng.Intn(8) {
		case 0:
			return nil
		case 1: // incompressible and large: segments span several scan chunks
			v := make([]byte, 8<<10+rng.Intn(24<<10))
			rng.Read(v)
			return v
		default:
			return []byte(fmt.Sprintf("v%d", rng.Intn(1000)))
		}
	}
	for step := 0; step < steps; step++ {
		key := fmt.Sprintf("k%02d", rng.Intn(40))
		var op string
		switch n := rng.Intn(100); {
		case n < 45:
			op = "put"
			r := Row{Key: key, Value: value(), WriteTime: ck.Now()}
			mustPut(t, e, r)
			model[key] = modelRow{value: r.Value, written: r.WriteTime}
		case n < 55:
			op = "ttl put"
			r := Row{Key: key, Value: value(), WriteTime: ck.Now(), TTL: time.Duration(1+rng.Intn(5)) * time.Second}
			mustPut(t, e, r)
			model[key] = modelRow{value: r.Value, written: r.WriteTime, ttl: r.TTL}
		case n < 65:
			op = "tombstone"
			mustPut(t, e, Row{Key: key, WriteTime: ck.Now(), Tombstone: true})
			model[key] = modelRow{written: ck.Now(), tombstone: true}
		case n < 75:
			op = "advance"
			ck.Advance(time.Duration(rng.Intn(3000)) * time.Millisecond)
		case n < 85:
			op = "flush"
			if _, err := e.Flush(); err != nil {
				t.Fatalf("step %d: Flush: %v", step, err)
			}
		case n < 93:
			op = "compact"
			if _, _, err := e.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
		default:
			op = "reopen"
			if err := e.Close(); err != nil {
				t.Fatalf("step %d: Close: %v", step, err)
			}
			if e, err = Open("/db", opt); err != nil {
				t.Fatalf("step %d: Open: %v", step, err)
			}
		}
		checkScanModel(t, e, model, ck.Now(), rng, fmt.Sprintf("step %d (%s)", step, op))
	}
}

func mustPut(t *testing.T, e *Engine, r Row) {
	t.Helper()
	if _, err := e.Put([]Row{r}); err != nil {
		t.Fatalf("Put(%q): %v", r.Key, err)
	}
}

func checkScanModel(t *testing.T, e *Engine, model map[string]modelRow, now time.Time, rng *rand.Rand, label string) {
	t.Helper()
	var want []string
	for k, m := range model {
		if !m.tombstone && !(m.ttl > 0 && now.Sub(m.written) > m.ttl) {
			want = append(want, k)
		}
	}
	slices.Sort(want)

	var got []Row
	if err := e.Scan(func(r Row) bool { got = append(got, r); return true }); err != nil {
		t.Fatalf("%s: Scan: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: Scan returned %d rows, model has %d", label, len(got), len(want))
	}
	for i, r := range got {
		if r.Key != want[i] || !bytes.Equal(r.Value, model[r.Key].value) {
			t.Fatalf("%s: row %d = %q (%d value bytes), want %q (%d)", label, i, r.Key, len(r.Value), want[i], len(model[want[i]].value))
		}
	}
	if n, err := e.LiveRows(); err != nil || n != len(want) {
		t.Fatalf("%s: LiveRows = %d, %v; want %d", label, n, err, len(want))
	}
	if len(want) == 0 {
		return
	}
	stop := 1 + rng.Intn(len(want))
	var head []string
	if err := e.Scan(func(r Row) bool { head = append(head, r.Key); return len(head) < stop }); err != nil {
		t.Fatalf("%s: early-stopped Scan: %v", label, err)
	}
	if !slices.Equal(head, want[:stop]) {
		t.Fatalf("%s: Scan stopped at row %d saw %v, want %v", label, stop, head, want[:stop])
	}
}

// TestScanConcurrentWithWritesAndCompaction runs scans beside a writer
// whose puts flush the memtable and start background compactions, and
// beside explicit compactions. Every scan must succeed (in particular
// never read a segment a compaction retired under it), be strictly
// ascending, and see every key acknowledged before it started.
func TestScanConcurrentWithWritesAndCompaction(t *testing.T) {
	t.Run("memfs", func(t *testing.T) { runConcurrentScans(t, NewMemFS(), "/db") })
	t.Run("osfs", func(t *testing.T) { runConcurrentScans(t, OSFS{}, t.TempDir()) })
}

func runConcurrentScans(t *testing.T, fs FS, dir string) {
	e, err := Open(dir, Options{
		MemtableFlushBytes:  4 << 10,
		CompactionThreshold: 3,
		IndexEvery:          4,
		FS:                  fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const keys = 1500
	var acked atomic.Int64 // keys k0..k(acked-1) are acknowledged
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() { // writer: each new key, then an overwrite of an older one
		defer wg.Done()
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < keys; i++ {
			rows := []Row{{Key: fmt.Sprintf("k%05d", i), Value: bytes.Repeat([]byte{byte(i)}, 40), WriteTime: time.Now()}}
			if i > 0 {
				rows = append(rows, Row{Key: fmt.Sprintf("k%05d", rng.Intn(i)), Value: []byte("again"), WriteTime: time.Now()})
			}
			if _, err := e.Put(rows); err != nil {
				t.Errorf("Put: %v", err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	wg.Add(1)
	go func() { // explicit compactions beside the background ones
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, _, err := e.Compact(); err != nil {
				t.Errorf("Compact: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for scans := 0; ; scans++ {
				select {
				case <-done:
					if scans > 0 {
						return
					}
				default:
				}
				before := int(acked.Load())
				bound := fmt.Sprintf("k%05d", before) // above every acknowledged key
				var prev string
				seen := 0
				err := e.Scan(func(r Row) bool {
					if prev != "" && r.Key <= prev {
						t.Errorf("scan row %q after %q", r.Key, prev)
						return false
					}
					if r.Key < bound {
						seen++
					}
					prev = r.Key
					return true
				})
				if err != nil {
					t.Errorf("Scan: %v", err)
					return
				}
				if seen != before {
					t.Errorf("scan saw %d of the %d keys acknowledged before it started", seen, before)
					return
				}
				if _, err := e.LiveRows(); err != nil {
					t.Errorf("LiveRows: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := e.Stats(); st.Flushes == 0 || st.Compactions == 0 {
		t.Fatalf("no flush or compaction ran beside the scans: %+v", st)
	}
}
