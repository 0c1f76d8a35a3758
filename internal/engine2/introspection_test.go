package engine2

import (
	"fmt"
	"testing"

	"muppet/internal/event"
)

func TestMachineAcceptedSumsDeliveries(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 3, QueueCapacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	const n = 200
	for i := 0; i < n; i++ {
		e.Ingest(checkin(i+1, fmt.Sprintf("r%d", i%7)))
	}
	e.Drain()
	var total uint64
	for _, c := range e.MachineAccepted() {
		total += c
	}
	// Each checkin is one M1 delivery plus one U1 delivery.
	if total != 2*n {
		t.Fatalf("accepted = %d, want %d", total, 2*n)
	}
}

// metric reads one sample of the engine's registry, failing the test
// when the family is missing.
func metric(t *testing.T, e *Engine, name string) float64 {
	t.Helper()
	m, ok := e.Metrics().Find(name)
	if !ok {
		t.Fatalf("no %s in the registry", name)
	}
	return m.Value
}

func TestCacheTotalsConsistentWithStats(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 2, QueueCapacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 100; i++ {
		e.Ingest(checkin(i+1, fmt.Sprintf("r%d", i%5)))
	}
	e.Drain()
	hits, misses := metric(t, e, "muppet_slate_cache_hits_total"), metric(t, e, "muppet_slate_cache_misses_total")
	// 5 distinct keys miss once each; the rest hit.
	if misses != 5 || hits != 95 {
		t.Fatalf("hits, misses = %v, %v; want 95, 5", hits, misses)
	}
}

func TestMaxQueueDepthAndAcceptedPerQueue(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 2, ThreadsPerMachine: 2, QueueCapacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 300; i++ {
		e.Ingest(checkin(i+1, "walmart"))
	}
	e.Drain()
	if metric(t, e, "muppet_queue_max_depth") <= 0 {
		t.Fatal("muppet_queue_max_depth never rose above zero")
	}
	per := e.AcceptedPerQueue()
	if len(per) != 4 {
		t.Fatalf("queues = %d, want 4", len(per))
	}
	var sum uint64
	for _, c := range per {
		sum += c
	}
	if sum != 600 {
		t.Fatalf("accepted sum = %d, want 600", sum)
	}
}

func TestStoreSavesZeroWithoutStore(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	e.Ingest(checkin(1, "walmart"))
	e.Drain()
	if n := metric(t, e, "muppet_slate_store_saves_total"); n != 0 {
		t.Fatalf("muppet_slate_store_saves_total = %v without a store", n)
	}
}

func TestCandidatesDistinctWhenMultipleThreads(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1, ThreadsPerMachine: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines["machine-00"]
	for i := 0; i < 500; i++ {
		p, s, _ := e.candidates(m, fk{fn: "U1", key: fmt.Sprintf("k%d", i)})
		if p == s {
			t.Fatalf("key k%d: primary == secondary == %d", i, p)
		}
		if p < 0 || p >= 8 || s < 0 || s >= 8 {
			t.Fatalf("candidate out of range: %d %d", p, s)
		}
	}
}

func TestCandidatesSingleThreadDegenerate(t *testing.T) {
	e, err := New(counterApp(), Config{Machines: 1, ThreadsPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	m := e.machines["machine-00"]
	p, s, _ := e.candidates(m, fk{fn: "U1", key: "k"})
	if p != 0 || s != 0 {
		t.Fatalf("single-thread candidates = %d, %d", p, s)
	}
}

func TestBenchmarkIngestSmoke(t *testing.T) {
	// Exercise the envelope hot path under race detection.
	e, err := New(counterApp(), Config{Machines: 1, ThreadsPerMachine: 4, QueueCapacity: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i := 0; i < 500; i++ {
		e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("c%d", i), Value: []byte("checkin:walmart")})
	}
	e.Drain()
	if e.Stats().Processed == 0 {
		t.Fatal("nothing processed")
	}
}
