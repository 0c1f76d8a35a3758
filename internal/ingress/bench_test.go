package ingress_test

// Benchmarks for the streaming-ingress redesign's core claim: grouping
// a batch's deliveries per destination machine amortizes the cluster
// send, the tracker accounting, and the destination queue lock, so the
// per-event overhead of the engine2 hot path falls measurably versus
// fire-and-forget Ingest.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"muppet/internal/core"
	"muppet/internal/engine2"
	"muppet/internal/event"
)

func benchApp() *core.App {
	m1 := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) {
		if strings.HasPrefix(string(in.Value), "checkin:") {
			emit.Publish("S2", strings.TrimPrefix(string(in.Value), "checkin:"), in.Value)
		}
	}}
	u1 := core.UpdateFunc{FName: "U1", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		count := 0
		if sl != nil {
			count, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(count + 1)))
	}}
	return core.NewApp("bench").
		Input("S1").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, nil, 0)
}

func benchEngine(b *testing.B) *engine2.Engine {
	b.Helper()
	e, err := engine2.New(benchApp(), engine2.Config{
		Machines:          8,
		ThreadsPerMachine: 2,
		QueueCapacity:     1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func benchEvents(n int) []event.Event {
	retailers := []string{"walmart", "bestbuy", "jcpenney", "samsclub", "target", "costco", "kohls", "macys"}
	evs := make([]event.Event, n)
	for i := range evs {
		evs[i] = event.Event{
			Stream: "S1",
			TS:     event.Timestamp(i + 1),
			Key:    fmt.Sprintf("c%d", i),
			Value:  []byte("checkin:" + retailers[i%len(retailers)]),
		}
	}
	return evs
}

// BenchmarkIngressPerEvent is the baseline: one fire-and-forget Ingest
// call per event, paying ring send, tracker, and queue lock each time.
func BenchmarkIngressPerEvent(b *testing.B) {
	e := benchEngine(b)
	defer e.Stop()
	evs := benchEvents(b.N)
	b.ResetTimer()
	for i := range evs {
		e.Ingest(evs[i])
	}
	e.Drain()
}

// BenchmarkIngressBatch256 feeds the same workload through
// IngestBatch in 256-event batches — the redesigned hot path.
func BenchmarkIngressBatch256(b *testing.B) {
	benchmarkBatch(b, 256)
}

// BenchmarkIngressBatch1024 measures a larger batch to show where the
// amortization flattens out.
func BenchmarkIngressBatch1024(b *testing.B) {
	benchmarkBatch(b, 1024)
}

func benchmarkBatch(b *testing.B, size int) {
	e := benchEngine(b)
	defer e.Stop()
	evs := benchEvents(b.N)
	b.ResetTimer()
	for i := 0; i < len(evs); i += size {
		end := i + size
		if end > len(evs) {
			end = len(evs)
		}
		if _, err := e.IngestBatch(evs[i:end]); err != nil {
			b.Fatal(err)
		}
	}
	e.Drain()
}

// BenchmarkIngressEnqueueOnlyPerEvent isolates the enqueue path (no
// processing): a single hot destination machine, worker threads
// parked behind a full-speed consumer-free measurement is impossible
// in-process, so instead the map stage is trivial and the measurement
// reflects dominated-by-enqueue cost.
func BenchmarkIngressEnqueueOnlyPerEvent(b *testing.B) {
	benchmarkEnqueueOnly(b, 0)
}

// BenchmarkIngressEnqueueOnlyBatch256 is the batched equivalent.
func BenchmarkIngressEnqueueOnlyBatch256(b *testing.B) {
	benchmarkEnqueueOnly(b, 256)
}

func benchmarkEnqueueOnly(b *testing.B, batch int) {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {}}
	app := core.NewApp("enq").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	e, err := engine2.New(app, engine2.Config{
		Machines:          4,
		ThreadsPerMachine: 2,
		QueueCapacity:     1 << 16,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	evs := benchEvents(b.N)
	b.ResetTimer()
	if batch <= 0 {
		for i := range evs {
			e.Ingest(evs[i])
		}
	} else {
		for i := 0; i < len(evs); i += batch {
			end := i + batch
			if end > len(evs) {
				end = len(evs)
			}
			if _, err := e.IngestBatch(evs[i:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
	e.Drain()
}
