// Package muppet_test hosts the benchmark harness: one testing.B
// benchmark per experiment in the package experiments index (the paper
// has no numbered result tables; E01–E17 cover every quantitative claim and
// design argument in its evaluation, Sections 4–5). Each benchmark
// runs its experiment and reports the headline figures as custom
// metrics, so `go test -bench=.` regenerates the paper's evaluation.
// cmd/mupbench prints the full tables.
package muppet_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"muppet"
	"muppet/experiments"
	"muppet/muppetapps"
)

// benchScale keeps each experiment's bench iteration in the hundreds
// of milliseconds; mupbench runs the full size.
const benchScale = experiments.Scale(0.2)

// reportRate extracts a numeric cell from an experiment row and
// reports it as a benchmark metric.
func reportCell(b *testing.B, t experiments.Table, row int, col int, unit string) {
	b.Helper()
	if row >= len(t.Rows) || col >= len(t.Rows[row]) {
		return
	}
	cell := strings.TrimSuffix(t.Rows[row][col], "x")
	if v, err := strconv.ParseFloat(cell, 64); err == nil {
		b.ReportMetric(v, unit)
		return
	}
	if d, err := time.ParseDuration(t.Rows[row][col]); err == nil {
		b.ReportMetric(float64(d.Nanoseconds()), unit)
	}
}

func BenchmarkE01Throughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E01Throughput(benchScale)
		reportCell(b, t, len(t.Rows)-1, 3, "events/s")
	}
}

func BenchmarkE02Latency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E02Latency(benchScale)
		reportCell(b, t, 1, 4, "p99-ns")
	}
}

func BenchmarkE03MachineScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E03MachineScaling(benchScale)
		reportCell(b, t, len(t.Rows)-1, 4, "max/mean")
	}
}

func BenchmarkE04Engine1vs2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E04Engine1vs2(benchScale)
		reportCell(b, t, 1, 4, "speedup-2.0-vs-1.0")
	}
}

func BenchmarkE05CacheWorkingSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E05CacheWorkingSet(benchScale)
		reportCell(b, t, 0, 2, "disparate-store-loads")
		reportCell(b, t, 1, 2, "central-store-loads")
	}
}

func BenchmarkE06HotspotDualQueue(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E06HotspotDualQueue(benchScale)
		reportCell(b, t, len(t.Rows)-1, 2, "dual-events/s")
		reportCell(b, t, len(t.Rows)-2, 2, "single-events/s")
	}
}

func BenchmarkE07KeySplitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E07KeySplitting(benchScale)
		reportCell(b, t, 0, 1, "split1-events/s")
		reportCell(b, t, len(t.Rows)-1, 1, "split8-events/s")
	}
}

func BenchmarkE08SSDvsHDD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E08SSDvsHDD(benchScale)
		reportCell(b, t, 0, 4, "ssd-per-read-ns")
		reportCell(b, t, 1, 4, "hdd-per-read-ns")
	}
}

func BenchmarkE09FlushPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E09FlushPolicy(benchScale)
		reportCell(b, t, 0, 2, "writethrough-saves")
		reportCell(b, t, 2, 4, "onevict-dirty-lost")
	}
}

func BenchmarkE10Quorum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E10Quorum(benchScale)
		reportCell(b, t, 0, 2, "one-write-ns")
		reportCell(b, t, 2, 2, "all-write-ns")
	}
}

func BenchmarkE11TTL(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E11TTL(benchScale)
		reportCell(b, t, 0, 3, "forever-live-rows")
		reportCell(b, t, 1, 3, "ttl-live-rows")
	}
}

func BenchmarkE12Failure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E12Failure(benchScale)
		reportCell(b, t, 0, 1, "detect-ns")
	}
}

func BenchmarkE13Overflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E13Overflow(benchScale)
		reportCell(b, t, 0, 4, "drop-lost")
		reportCell(b, t, 2, 4, "throttle-lost")
	}
}

func BenchmarkE14Retailer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E14Retailer(benchScale)
	}
}

func BenchmarkE15HotTopics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E15HotTopics(benchScale)
	}
}

func BenchmarkE16VsMicroBatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E16VsMicroBatch(benchScale)
		reportCell(b, t, 0, 1, "muppet-mean-ns")
		reportCell(b, t, 1, 1, "microbatch1s-mean-ns")
	}
}

func BenchmarkE17SlateSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E17SlateSize(benchScale)
		reportCell(b, t, 0, 2, "100B-events/s")
		reportCell(b, t, len(t.Rows)-1, 2, "1MB-events/s")
	}
}

func BenchmarkE18Replay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E18Replay(benchScale)
		reportCell(b, t, 0, 2, "stock-deficit")
		reportCell(b, t, 1, 2, "replay-deficit")
	}
}

func BenchmarkE19BatchedIngress(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.E19BatchedIngress(benchScale)
		reportCell(b, t, 0, 3, "per-event-events/s")
		reportCell(b, t, 1, 3, "batched-events/s")
	}
}

// BenchmarkIngestPath measures the raw per-event cost of the full
// MapUpdate pipeline (map -> route -> update -> slate write) on the
// retailer application, the number the E01 throughput derives from.
func BenchmarkIngestPath(b *testing.B) {
	eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
		Machines: 4, QueueCapacity: 1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Stop()
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Ingest(gen.Checkin("S1"))
	}
	eng.Drain()
}

// BenchmarkSlateWriteQuorum measures one replicated, compressed slate
// write at quorum — the persistence cost each flush pays.
func BenchmarkSlateWriteQuorum(b *testing.B) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true})
	slate := []byte(`{"count": 42, "interests": ["go", "streams", "retail"]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := "user" + strconv.Itoa(i%10000)
		if _, err := store.Cluster().Put(key, "U1", slate, 0, muppet.Quorum); err != nil {
			b.Fatal(err)
		}
	}
}
