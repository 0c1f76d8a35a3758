package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"muppet/internal/metrics"
)

func TestRegistryGatherSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "last", nil, func() uint64 { return 3 })
	r.Counter("aaa_total", "first", nil, func() uint64 { return 1 })
	r.GaugeInt("mmm", "middle", L("machine", "m-01"), func() int64 { return 2 })
	r.GaugeInt("mmm", "middle", L("machine", "m-00"), func() int64 { return 2 })
	ms := r.Gather()
	if len(ms) != 4 {
		t.Fatalf("Gather returned %d metrics, want 4", len(ms))
	}
	want := []string{"aaa_total", "mmm", "mmm", "zzz_total"}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Errorf("metric %d: name %q, want %q", i, m.Name, want[i])
		}
	}
	// Same name sorts by label set: m-00 before m-01.
	if ms[1].Labels[0].Value != "m-00" || ms[2].Labels[0].Value != "m-01" {
		t.Errorf("label sort wrong: %v then %v", ms[1].Labels, ms[2].Labels)
	}
}

func TestRegistryFind(t *testing.T) {
	r := NewRegistry()
	r.GaugeInt("depth", "", L("transport", "tcp", "machine", "m-00"), func() int64 { return 3 })
	r.GaugeInt("depth", "", L("transport", "tcp", "machine", "m-01"), func() int64 { return 5 })
	h := metrics.NewHistogram[time.Duration](0)
	h.Observe(1500 * time.Millisecond)
	Summary(r, "lat_seconds", "", nil, h)
	if m, ok := r.Find("depth", "machine", "m-01"); !ok || m.Value != 5 {
		t.Fatalf("Find(depth, machine=m-01) = %+v, %v; want 5", m, ok)
	}
	if m, ok := r.Find("depth"); !ok || m.Value != 3 {
		t.Fatalf("Find(depth) = %+v, %v; want the first sample, 3", m, ok)
	}
	for _, miss := range [][]string{{"depth", "machine", "m-02"}, {"depth", "node", "m-00"}, {"nosuch_total"}} {
		if m, ok := r.Find(miss[0], miss[1:]...); ok {
			t.Errorf("Find%v = %+v, want no sample", miss, m)
		}
	}
	m, ok := r.Find("lat_seconds")
	if !ok || m.Hist.Count != 1 || Duration(m.Hist.Quantile(0.99)) != 1500*time.Millisecond || m.Hist.Quantile(0.42) != 0 {
		t.Fatalf("Find(lat_seconds) = %+v, %v", m.Hist, ok)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	r.Register(CollectorFunc(func(emit func(Metric)) {}))
	if got := r.Gather(); got != nil {
		t.Fatalf("nil registry Gather = %v, want nil", got)
	}
}

func TestRegistryLazySampling(t *testing.T) {
	r := NewRegistry()
	var n uint64
	r.Counter("live_total", "", nil, func() uint64 { return n })
	n = 7
	if v := r.Gather()[0].Value; v != 7 {
		t.Fatalf("counter sampled %v at scrape, want live value 7", v)
	}
	n = 9
	if v := r.Gather()[0].Value; v != 9 {
		t.Fatalf("second scrape sampled %v, want 9", v)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("muppet_test_total", "A counter.", nil, func() uint64 { return 42 })
	r.Gauge("muppet_test_ratio", "A gauge.", L("machine", "m-00"), func() float64 { return 0.5 })
	h := metrics.NewHistogram[time.Duration](16)
	h.Observe(10 * time.Millisecond)
	h.Observe(20 * time.Millisecond)
	Summary(r, "muppet_test_seconds", "A summary.", nil, h)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP muppet_test_total A counter.",
		"# TYPE muppet_test_total counter",
		"muppet_test_total 42",
		"# TYPE muppet_test_ratio gauge",
		`muppet_test_ratio{machine="m-00"} 0.5`,
		"# TYPE muppet_test_seconds summary",
		`muppet_test_seconds{quantile="0.5"}`,
		`muppet_test_seconds{quantile="0.99"}`,
		"muppet_test_seconds_sum 0.03",
		"muppet_test_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestWritePrometheusHeaderOncePerName(t *testing.T) {
	r := NewRegistry()
	r.GaugeInt("muppet_depth", "Depth.", L("machine", "m-00"), func() int64 { return 1 })
	r.GaugeInt("muppet_depth", "Depth.", L("machine", "m-01"), func() int64 { return 2 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "# TYPE muppet_depth gauge"); n != 1 {
		t.Fatalf("TYPE header appeared %d times, want 1:\n%s", n, b.String())
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("muppet_c_total", "", nil, func() uint64 { return 5 })
	h := metrics.NewHistogram[int64](16)
	h.Observe(100)
	h.Observe(300)
	Summary(r, "muppet_sizes", "", L("machine", "m-00"), h)

	data, err := json.Marshal(r.SnapshotJSON())
	if err != nil {
		t.Fatal(err)
	}
	var entries []map[string]any
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("%d entries, want 2", len(entries))
	}
	if entries[0]["name"] != "muppet_c_total" || entries[0]["value"].(float64) != 5 {
		t.Errorf("counter entry wrong: %v", entries[0])
	}
	sum := entries[1]
	if sum["count"].(float64) != 2 || sum["sum"].(float64) != 400 || sum["max"].(float64) != 300 {
		t.Errorf("summary entry wrong: %v", sum)
	}
	if sum["labels"].(map[string]any)["machine"] != "m-00" {
		t.Errorf("summary labels wrong: %v", sum["labels"])
	}
}

func TestTracerDisabled(t *testing.T) {
	tr := NewTracer("app", TracerConfig{})
	if tr != nil {
		t.Fatal("zero-value config should return a nil tracer")
	}
	// Every method must be nil-safe.
	if tr.Sample() {
		t.Fatal("nil tracer sampled")
	}
	sp := tr.Start("s", 1, 2)
	sp.MarkExec()
	sp.MarkEmit()
	tr.Finish(sp)
	tr.ObserveIngestAccept(time.Millisecond)
	tr.ObserveFlushSettle(time.Millisecond)
	if tr.SampleRate() != 0 {
		t.Fatalf("nil tracer rate %d, want 0", tr.SampleRate())
	}
}

func TestTracerSampleRate(t *testing.T) {
	tr := NewTracer("app", TracerConfig{Tracing: true, SampleRate: 4})
	hits := 0
	for i := 0; i < 400; i++ {
		if tr.Sample() {
			hits++
		}
	}
	if hits != 100 {
		t.Fatalf("1-in-4 sampling hit %d of 400", hits)
	}
	if tr.SampleRate() != 4 {
		t.Fatalf("rate %d, want 4", tr.SampleRate())
	}
	if def := NewTracer("app", TracerConfig{Tracing: true}); def.SampleRate() != DefaultSampleRate {
		t.Fatalf("default rate %d, want %d", def.SampleRate(), DefaultSampleRate)
	}
}

func TestTracerSpanLifecycle(t *testing.T) {
	tr := NewTracer("myapp", TracerConfig{Tracing: true, SampleRate: 1})
	base := time.Now().UnixNano()
	sp := tr.Start("S1", base-int64(time.Millisecond), base)
	sp.MarkExec()
	sp.MarkEmit()
	tr.Finish(sp)
	tr.ObserveIngestAccept(time.Millisecond)
	tr.ObserveFlushSettle(2 * time.Millisecond)

	var got []Metric
	tr.Collect(func(m Metric) { got = append(got, m) })
	byName := map[string]Metric{}
	for _, m := range got {
		byName[m.Name] = m
	}
	for _, name := range []string{
		"muppet_trace_ingest_accept_seconds",
		"muppet_trace_queue_wait_seconds",
		"muppet_trace_exec_seconds",
		"muppet_trace_emit_seconds",
		"muppet_trace_flush_settle_seconds",
		"muppet_trace_e2e_seconds",
	} {
		m, ok := byName[name]
		if !ok {
			t.Errorf("tracer did not emit %s", name)
			continue
		}
		if m.Hist == nil || m.Hist.Count != 1 {
			t.Errorf("%s: want 1 observation, got %+v", name, m.Hist)
		}
	}
	e2e := byName["muppet_trace_e2e_seconds"]
	wantLabels := Labels{{"app", "myapp"}, {"stream", "S1"}}
	if len(e2e.Labels) != 2 || e2e.Labels[0] != wantLabels[0] || e2e.Labels[1] != wantLabels[1] {
		t.Errorf("e2e labels = %v, want %v", e2e.Labels, wantLabels)
	}
	if e2e.Hist.Sum < (time.Millisecond).Seconds() {
		t.Errorf("e2e latency %v should include the 1ms pre-enqueue ingress lead", e2e.Hist.Sum)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer("app", TracerConfig{Tracing: true, SampleRate: 1})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stream := []string{"A", "B", "C"}[i%3]
			for j := 0; j < 200; j++ {
				if !tr.Sample() {
					continue
				}
				now := time.Now().UnixNano()
				sp := tr.Start(stream, now, now)
				sp.MarkExec()
				sp.MarkEmit()
				tr.Finish(sp)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Collect(func(Metric) {})
		}
	}()
	wg.Wait()
	<-done
}
