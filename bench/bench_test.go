package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/muppetapps"
)

func TestPercentileAndMedian(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-12 }
	s := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {0.99, 4.96}, {1, 5},
	} {
		if got := percentile(s, tc.p); !near(got, tc.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", s, tc.p, got, tc.want)
		}
	}
	if got := percentile([]float64{10, 20}, 0.5); !near(got, 15) {
		t.Errorf("two-element median = %v, want 15", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
	in := []float64{9, 1, 5, 3}
	if got := median(in); !near(got, 4) {
		t.Errorf("median(%v) = %v, want 4", in, got)
	}
	if in[0] != 9 || in[3] != 3 {
		t.Errorf("median reordered its input: %v", in)
	}
	if got := nsToSortedMs([]int64{3e6, 1e6, 2e6}); got[0] != 1 || got[2] != 3 {
		t.Errorf("nsToSortedMs = %v", got)
	}
}

func TestSelfTime(t *testing.T) {
	// parent 0..100 with children 10..30 and 20..50 (overlapping) and
	// 90..120 (clipped): covered = 40 + 10, self = 50.
	spans := []span{
		{ID: 1, Name: "parent", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "child", StartNs: 20, EndNs: 50},
		{ID: 3, Parent: 1, Name: "child", StartNs: 10, EndNs: 30},
		{ID: 4, Parent: 1, Name: "child", StartNs: 90, EndNs: 120},
	}
	total, self := selfTimes(spans)
	if total["parent"] != 100 || self["parent"] != 50 {
		t.Errorf("parent total %v self %v, want 100 and 50", total["parent"], self["parent"])
	}
	if total["child"] != 80 || self["child"] != 80 {
		t.Errorf("child total %v self %v, want 80 and 80", total["child"], self["child"])
	}
}

func TestPoolDeterminism(t *testing.T) {
	a, b, c := newPool(7, 1000, 2048), newPool(7, 1000, 2048), newPool(8, 1000, 2048)
	if a.hash != b.hash {
		t.Errorf("same seed, different pool hash: %x vs %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("different seeds, same pool hash %x", a.hash)
	}
	tally := func(p *pool) []uint32 {
		src := newSource(p)
		buf := make([]event.Event, 300)
		for i := 0; i < 10; i++ { // 3000 events: wraps the pool
			src.fill(buf, 0)
		}
		return src.tally
	}
	ta, tb := tally(a), tally(b)
	if len(ta) != len(tb) {
		t.Fatalf("same seed, %d vs %d users", len(ta), len(tb))
	}
	sum := 0
	for i := range ta {
		if ta[i] != tb[i] {
			t.Fatalf("same seed, tally differs at user %d: %d vs %d", i, ta[i], tb[i])
		}
		sum += int(ta[i])
	}
	if sum != 3000 {
		t.Errorf("tally sums to %d, want 3000", sum)
	}
}

// TestProbeForwards pins that the probe is invisible to the program:
// same name and codec, and the same events produce byte-identical typed
// slates and the same emitted events with and without it.
func TestProbeForwards(t *testing.T) {
	inner := muppetapps.ReputationApp().Function(updater).Updater.(core.DecodedUpdater)
	ps := newProbeState()
	p := &probe{inner: inner, ps: ps}
	if p.Name() != inner.Name() {
		t.Errorf("Name: %q vs %q", p.Name(), inner.Name())
	}
	codec := p.SlateCodec()
	pool := newPool(3, 50, 400)

	run := func(u core.DecodedUpdater, decoded bool) (map[string][]byte, int) {
		slates := map[string][]byte{}
		emitted := 0
		for _, ev := range pool.events {
			ev.Stream = "S2"
			em := &captureEmitter{}
			if decoded {
				var obj any
				if sl := slates[ev.Key]; sl != nil {
					obj, _ = codec.Decode(sl)
				} else {
					obj = codec.New()
				}
				u.UpdateDecoded(em, ev, obj)
				slates[ev.Key], _ = codec.AppendEncode(nil, obj)
			} else {
				u.Update(em, ev, slates[ev.Key])
				slates[ev.Key] = em.slate
			}
			emitted += em.published
		}
		return slates, emitted
	}
	for _, decoded := range []bool{true, false} {
		want, wantEmits := run(inner, decoded)
		got, gotEmits := run(p, decoded)
		if gotEmits != wantEmits {
			t.Errorf("decoded=%v: %d events emitted through the probe, %d without", decoded, gotEmits, wantEmits)
		}
		for k, w := range want {
			if string(got[k]) != string(w) {
				t.Fatalf("decoded=%v: slate %s = %s through the probe, %s without", decoded, k, got[k], w)
			}
		}
	}
	if done := ps.done.Load(); done != 2*int64(len(pool.events)) {
		t.Errorf("probe counted %d S2 completions, want %d", done, 2*len(pool.events))
	}
}

type captureEmitter struct {
	published int
	slate     []byte
}

func (c *captureEmitter) Publish(stream, key string, value []byte) error { c.published++; return nil }
func (c *captureEmitter) ReplaceSlate(value []byte)                      { c.slate = append([]byte{}, value...) }

// TestBenchmarkJSONMatchesCode keeps the contract file and the harness
// from drifting: same workloads, same end-to-end names, same per-layer
// names, units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []row `json:"end_to_end"`
		PerLayer  []row `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, spec.Workloads[i].Name, w.name)
		}
	}
	e2e := (&pass{
		setupS: []float64{1},
		sat:    []satResult{{events: 1, wall: time.Second, cpu: time.Second}},
		paced:  []pacedResult{{latMs: []float64{1}, offered: 1}},
		topkMs: []float64{1},
	}).endToEnd()
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(spec.EndToEnd), len(e2e))
	}
	for _, r := range spec.EndToEnd {
		if m, ok := e2e[r.Name]; !ok || m.Unit != r.Unit {
			t.Errorf("end-to-end %s [%s]: code has %+v (present=%v)", r.Name, r.Unit, m, ok)
		}
		if r.Bound <= 0 || r.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", r.Name, r.Bound)
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(spec.PerLayer), len(layerMetrics))
	}
	for i, lm := range layerMetrics {
		r := spec.PerLayer[i]
		if r.Name != lm.name || r.Unit != lm.unit || r.Better != lm.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, r, lm)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at 1/100 length with the
// oracle on, each under its own deadline so the package can never hang
// a test run.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs real engines and sockets")
	}
	out := t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			type outcome struct {
				res *result
				err error
			}
			ch := make(chan outcome, 1)
			go func() {
				res, err := runWorkload(w, 1, 0.2, false, out, null)
				ch <- outcome{res, err}
			}()
			select {
			case <-ctx.Done():
				t.Fatalf("%s did not finish within its deadline", w.name)
			case o := <-ch:
				if o.err != nil {
					t.Fatal(o.err)
				}
				if !o.res.Correct || o.res.Failed != 0 || o.res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", o.res.Correct, o.res.Attempted, o.res.Failed)
				}
				for name, m := range o.res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s = %v, want > 0", name, m.Value)
					}
				}
			}
		})
	}
}

// TestSmokeTraced runs one traced invocation end to end: both passes,
// every layer driver, the trace file.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs real engines and sockets")
	}
	out := t.TempDir()
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	res, err := runWorkload(findWorkload("tcp3_durable_zipf"), 1, 0.4, true, out, null)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Errorf("traced smoke: %d of %d operations failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics reported, want %d", len(res.Metrics), len(layerMetrics))
	}
	data, err := os.ReadFile(filepath.Join(out, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.Name] = true
		if sp.EndNs < sp.StartNs || sp.Workload != "tcp3_durable_zipf" {
			t.Fatalf("bad span %+v", sp)
		}
	}
	for _, name := range []string{"setup", "round.saturate", "round.paced", "ingress.IngestBatch", "engine2.Drain", "slate.FlushSlates", "query.Query", "query.Slate", "verify"} {
		if !seen[name] {
			t.Errorf("trace.json has no %q span", name)
		}
	}
}
