package microbatch

import (
	"strconv"
	"testing"
	"time"

	"muppet/internal/event"
)

func countingConfig(interval time.Duration) Config {
	return Config{
		BatchInterval: interval,
		Map: func(e event.Event) []KV {
			return []KV{{Key: e.Key, Value: []byte("1")}}
		},
		Reduce: func(key string, values [][]byte, prev []byte) []byte {
			n := 0
			if prev != nil {
				n, _ = strconv.Atoi(string(prev))
			}
			return []byte(strconv.Itoa(n + len(values)))
		},
	}
}

func evAt(tsMillis int64, key string) event.Event {
	return event.Event{Stream: "S1", TS: event.Timestamp(tsMillis * 1000), Key: key}
}

func TestCountsAcrossBatches(t *testing.T) {
	e := New(countingConfig(time.Second))
	var events []event.Event
	for i := 0; i < 50; i++ {
		events = append(events, evAt(int64(i*100), "a")) // 5s of stream
	}
	e.Run(events)
	if got := string(e.Result("a")); got != "50" {
		t.Fatalf("count = %q, want 50", got)
	}
	s := e.Stats()
	if s.Batches != 5 {
		t.Fatalf("batches = %d, want 5", s.Batches)
	}
	if s.MapCalls != 50 {
		t.Fatalf("map calls = %d", s.MapCalls)
	}
}

func TestResultLatencyGrowsWithBatchInterval(t *testing.T) {
	mk := func(interval time.Duration) time.Duration {
		e := New(countingConfig(interval))
		var events []event.Event
		for i := 0; i < 600; i++ {
			events = append(events, evAt(int64(i*100), "a")) // 60s of stream
		}
		e.Run(events)
		return e.Latency().Snapshot().Mean()
	}
	short := mk(time.Second)
	long := mk(10 * time.Second)
	if long < 5*short {
		t.Fatalf("latency: 10s batches (%v) should dwarf 1s batches (%v)", long, short)
	}
	// Mean result latency of a uniform stream is about half the batch
	// interval.
	if short < 300*time.Millisecond || short > 700*time.Millisecond {
		t.Fatalf("1s-batch mean latency = %v, want ~500ms", short)
	}
}

func TestUnsortedInputHandled(t *testing.T) {
	e := New(countingConfig(time.Second))
	events := []event.Event{evAt(2500, "a"), evAt(100, "a"), evAt(1200, "a")}
	e.Run(events)
	if got := string(e.Result("a")); got != "3" {
		t.Fatalf("count = %q, want 3", got)
	}
}

func TestMultipleKeysGrouped(t *testing.T) {
	e := New(countingConfig(time.Second))
	e.Run([]event.Event{evAt(0, "a"), evAt(10, "b"), evAt(20, "a")})
	if string(e.Result("a")) != "2" || string(e.Result("b")) != "1" {
		t.Fatalf("a=%q b=%q", e.Result("a"), e.Result("b"))
	}
	if len(e.Results()) != 2 {
		t.Fatalf("results = %v", e.Results())
	}
}

func TestEmptyRun(t *testing.T) {
	e := New(countingConfig(time.Second))
	e.Run(nil)
	if e.Stats().Batches != 0 {
		t.Fatal("phantom batches")
	}
}

func TestEmptyIntervalsSkipped(t *testing.T) {
	e := New(countingConfig(time.Second))
	// Two events 10 stream-seconds apart: gaps must not produce
	// batches.
	e.Run([]event.Event{evAt(0, "a"), evAt(10_000, "a")})
	if got := e.Stats().Batches; got != 2 {
		t.Fatalf("batches = %d, want 2", got)
	}
}

func TestReducerStateCarriedNotRescanned(t *testing.T) {
	// The reduce function sees only the new batch's values plus carried
	// state — the incremental adaptation.
	var maxBatchValues int
	cfg := countingConfig(time.Second)
	inner := cfg.Reduce
	cfg.Reduce = func(key string, values [][]byte, prev []byte) []byte {
		if len(values) > maxBatchValues {
			maxBatchValues = len(values)
		}
		return inner(key, values, prev)
	}
	e := New(cfg)
	var events []event.Event
	for i := 0; i < 100; i++ {
		events = append(events, evAt(int64(i*100), "a"))
	}
	e.Run(events)
	if maxBatchValues > 10 {
		t.Fatalf("reduce saw %d values in one call; state not carried incrementally", maxBatchValues)
	}
}
