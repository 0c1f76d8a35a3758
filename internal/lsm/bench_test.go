package lsm

import (
	"fmt"
	"testing"

	"muppet/internal/clock"
)

func benchEngine(b *testing.B, fs FS) *Engine {
	b.Helper()
	dir := "/bench"
	if _, ok := fs.(OSFS); ok {
		dir = b.TempDir()
	}
	e, err := Open(dir, Options{
		MemtableFlushBytes:  8 << 20,
		CompactionThreshold: 1 << 30, // benches drive compaction explicitly
		FS:                  fs,
		Clock:               clock.Real{},
		DisableAutoCompact:  true,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

func benchRows(n, batch int) [][]Row {
	val := make([]byte, 256)
	for i := range val {
		val[i] = byte(i)
	}
	batches := make([][]Row, 0, (n+batch-1)/batch)
	for i := 0; i < n; i += batch {
		rows := make([]Row, 0, batch)
		for j := i; j < i+batch && j < n; j++ {
			rows = append(rows, Row{Key: fmt.Sprintf("bench-key-%08d", j), Value: val})
		}
		batches = append(batches, rows)
	}
	return batches
}

// BenchmarkLSMPut measures single-row durable puts (one WAL group
// commit each) on the in-memory FS, isolating engine overhead from
// device fsync latency.
func BenchmarkLSMPut(b *testing.B) {
	e := benchEngine(b, NewMemFS())
	batches := benchRows(b.N, 1)
	b.ResetTimer()
	for _, rows := range batches {
		if _, err := e.Put(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMPutBatch100 measures group commit: 100 rows per WAL
// sync. Throughput per row should be far higher than BenchmarkLSMPut.
func BenchmarkLSMPutBatch100(b *testing.B) {
	e := benchEngine(b, NewMemFS())
	batches := benchRows(b.N*100, 100)
	b.ResetTimer()
	for _, rows := range batches {
		if _, err := e.Put(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMPutOS is the real-disk variant: every put is an actual
// fsync through the OS, which is the durability cost a node pays.
func BenchmarkLSMPutOS(b *testing.B) {
	e := benchEngine(b, OSFS{})
	batches := benchRows(b.N, 1)
	b.ResetTimer()
	for _, rows := range batches {
		if _, err := e.Put(rows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLSMGet contrasts the three read paths: a memtable hit (no
// disk), a bloom-filter skip (absent key, no disk), and a true segment
// read (sparse-index bounded block fetch).
func BenchmarkLSMGet(b *testing.B) {
	const n = 10_000
	setup := func(b *testing.B, flush bool) *Engine {
		e := benchEngine(b, NewMemFS())
		for _, rows := range benchRows(n, 100) {
			if _, err := e.Put(rows); err != nil {
				b.Fatal(err)
			}
		}
		if flush {
			if _, err := e.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}

	b.Run("memtable-hit", func(b *testing.B) {
		e := setup(b, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _, _ := e.Get(fmt.Sprintf("bench-key-%08d", i%n)); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("bloom-skip", func(b *testing.B) {
		e := setup(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Get(fmt.Sprintf("absent-key-%08d", i))
		}
		b.StopTimer()
		s := e.Stats()
		b.ReportMetric(float64(s.BloomSkips)/float64(b.N), "skips/op")
	})
	b.Run("segment-read", func(b *testing.B) {
		e := setup(b, true)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok, _, _ := e.Get(fmt.Sprintf("bench-key-%08d", i%n)); !ok {
				b.Fatal("miss")
			}
		}
		b.StopTimer()
		s := e.Stats()
		b.ReportMetric(float64(s.BytesRead)/float64(b.N), "disk-B/op")
	})
}

// BenchmarkLSMScan measures a full scan of 10k live rows held in the
// memtable alone, and spread over four segments with a quarter of the
// keys rewritten in the memtable on top.
func BenchmarkLSMScan(b *testing.B) {
	const n = 10_000
	scan := func(b *testing.B, e *Engine) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rows := 0
			if err := e.Scan(func(Row) bool { rows++; return true }); err != nil || rows != n {
				b.Fatalf("scan: %d rows, %v", rows, err)
			}
		}
	}
	b.Run("memtable", func(b *testing.B) {
		e := benchEngine(b, NewMemFS())
		for _, rows := range benchRows(n, 100) {
			if _, err := e.Put(rows); err != nil {
				b.Fatal(err)
			}
		}
		scan(b, e)
	})
	b.Run("segments", func(b *testing.B) {
		e := benchEngine(b, NewMemFS())
		for i, rows := range benchRows(n, 100) {
			if _, err := e.Put(rows); err != nil {
				b.Fatal(err)
			}
			if i%25 == 24 {
				if _, err := e.Flush(); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, rows := range benchRows(n/4, 100) {
			if _, err := e.Put(rows); err != nil {
				b.Fatal(err)
			}
		}
		scan(b, e)
	})
}

// BenchmarkLSMCompact measures merging 4 overlapping 2.5k-row segments
// into one.
func BenchmarkLSMCompact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := benchEngine(b, NewMemFS())
		for s := 0; s < 4; s++ {
			for _, rows := range benchRows(2_500, 100) {
				if _, err := e.Put(rows); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := e.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, _, err := e.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Close()
		b.StartTimer()
	}
}
