// Command bench is the repository's load harness: it drives the paper's
// Example 3 application (muppetapps.ReputationApp) through the public
// muppet.Engine API on four named workloads, prints five gated end-to-end
// metrics per workload, verifies every answer against a reference, and
// — with --trace 1 — fills the per-layer table. See README.md in this
// directory for every definition; BENCHMARK.json at the repository root
// is the machine-readable contract.
//
//	bash bench/run.sh --workload inproc_hot --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver's contract: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "workload seed: same seed, same inputs")
		seconds = flag.Float64("seconds", 20, "measured time per workload")
		trace   = flag.Int("trace", 0, "1: traced pass + layer drivers, print per-layer metrics")
		out     = flag.String("out", filepath.Join("bench", "out"), "directory for trace.json and durable stores")
	)
	flag.Parse()
	var run []*workloadDef
	if *name == "all" {
		for i := range workloads {
			run = append(run, &workloads[i])
		}
	} else if w := findWorkload(*name); w != nil {
		run = append(run, w)
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "bench: --seconds must be positive")
		os.Exit(2)
	}
	ok := true
	for _, w := range run {
		res, err := runWorkload(w, *seed, *seconds, *trace != 0, *out, os.Stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// pass is everything one measured pass over a workload produced.
type pass struct {
	setupS  []float64 // one per system
	sat     []satResult
	paced   []pacedResult
	topkMs  []float64 // ascending
	topkHow string
	verdict verdict

	offered, accepted            int
	queriesIssued, queriesFailed int

	// traced pass only
	rec *recorder
	acc *layerAcc
}

// newPass prepares a measurement of a workload; rec non-nil makes it
// the traced pass.
func newPass(w *workloadDef, rec *recorder) *pass {
	p := &pass{topkHow: "back-to-back after drain", rec: rec}
	if w.queryMix {
		p.topkHow = "scheduled, paced rounds"
	}
	if rec != nil {
		p.acc = newLayerAcc()
	}
	return p
}

// runPasses measures a workload: systems × (set-up, saturate slices,
// paced rounds, settle, queries, verify), each on a freshly built system.
// With two passes (the traced invocation's untraced and traced one)
// their systems alternate, so a drift of the box lands on both alike.
// share shortens the measured rounds; set-up, warm-up included, keeps
// its full length.
func runPasses(w *workloadDef, seed int64, seconds, share float64, dataRoot string, passes ...*pass) error {
	for i := 0; i < systems; i++ {
		for _, p := range passes {
			if err := p.system(w, seed, seconds, share, dataRoot); err != nil {
				return fmt.Errorf("system %d: %w", i, err)
			}
		}
	}
	for _, p := range passes {
		sort.Float64s(p.topkMs)
	}
	return nil
}

func (p *pass) system(w *workloadDef, seed int64, seconds, share float64, dataRoot string) error {
	rec := p.rec
	sp := rec.beginScope("setup")
	t0 := time.Now()
	s, err := newSUT(w, seed, seconds, dataRoot, rec)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	p.setupS = append(p.setupS, time.Since(t0).Seconds())
	var before snapshot
	if p.acc != nil {
		before = s.snapshot(nil)
	}

	sliceEvents := int(float64(w.satPerSec) * seconds * share / float64(systems*w.slices))
	pacedDur := time.Duration(seconds * share * pacedShare / float64(systems*w.rounds) * float64(time.Second))
	sat, err := s.saturateBlock(w.slices, sliceEvents)
	if err != nil {
		return fmt.Errorf("saturate: %w", err)
	}
	p.sat = append(p.sat, sat...)
	for i := 0; i < w.rounds; i++ {
		pr, err := s.paced(pacedDur)
		if err != nil {
			return fmt.Errorf("paced: %w", err)
		}
		p.paced = append(p.paced, pr)
	}

	sp = rec.beginScope("settle")
	dsp := rec.begin("engine2.Drain")
	s.drain()
	rec.end(dsp)
	fsp := rec.begin("slate.FlushSlates")
	for _, e := range s.nodes {
		e.FlushSlates()
	}
	rec.end(fsp)
	if s.queries == nil {
		// The back-to-back scans read a settled store: memtables flushed
		// and segments merged, so a query's time does not depend on
		// where the background compactor happened to be.
		csp := rec.begin("kvstore.FlushAll+CompactAll")
		for _, st := range s.stores {
			st.Cluster().FlushAll()
			st.Cluster().CompactAll()
		}
		rec.end(csp)
	}
	rec.end(sp)
	if p.acc != nil {
		p.acc.collect(s, before)
	}

	if q := s.queries; q != nil {
		p.topkMs = append(p.topkMs, q.topkMs...)
		p.queriesIssued += q.issued
		p.queriesFailed += q.failed
		if p.acc != nil {
			p.acc.addQueries(q.stats, q.statsNs, q.statsN)
			p.acc.pointUs = append(p.acc.pointUs, q.pointUs...)
		}
	} else {
		sp := rec.beginScope("query.phase")
		phase := time.Now()
		for i := 0; i < maxQueriesPerSystem && (i < minQueriesPerSystem || time.Since(phase) < queryPhaseBudget); i++ {
			// Every query starts from a just-collected heap: a scan
			// allocates tens of MiB, and whether a GC cycle lands inside
			// a query otherwise decides its time (80 vs 150 ms in-process).
			runtime.GC()
			t0 := time.Now()
			qsp := rec.begin("query.Query")
			res, err := s.nodes[0].Query(topkSpec)
			rec.end(qsp)
			p.queriesIssued++
			if err != nil {
				p.queriesFailed++
				continue
			}
			took := time.Since(t0)
			p.topkMs = append(p.topkMs, float64(took)/1e6)
			if p.acc != nil {
				p.acc.addQueries(res.Stats, took, 1)
			}
		}
		rec.end(sp)
	}
	if p.acc != nil {
		issued, failed := p.acc.readDrivers(s, rec)
		p.queriesIssued += issued
		p.queriesFailed += failed
	}

	sp = rec.beginScope("verify")
	v := s.verify()
	rec.end(sp)
	p.verdict.checked += v.checked
	p.verdict.failed += v.failed
	p.verdict.problems = append(p.verdict.problems, v.problems...)
	p.offered += s.offered
	p.accepted += s.accepted
	return nil
}

// endToEnd reduces a pass to the five gated metrics. Timings take the
// quartile on the good side of their samples, not the median: the
// reference box's noise is one-sided (it takes CPU away for seconds at
// a time and never gives extra), so the better quartile is the steadier
// estimate of what the program costs.
func (p *pass) endToEnd() map[string]metric {
	var cpu, p50 []float64
	var mallocs uint64
	events := 0
	for _, r := range p.paced {
		cpu = append(cpu, float64(r.cpu.Microseconds())/float64(r.offered))
		p50 = append(p50, percentile(r.latMs, 0.5))
		mallocs += r.mallocs
		events += r.offered
	}
	return map[string]metric{
		"setup_s":          {quartile(p.setupS, lowerIsBetter), "s"},
		"cpu_us_per_event": {quartile(cpu, lowerIsBetter), "us"},
		"allocs_per_event": {float64(mallocs) / float64(events), "1"},
		"latency_p50_ms":   {quartile(p50, lowerIsBetter), "ms"},
		"peak_rss_mb":      {peakRSSMiB(), "MiB"},
	}
}

// saturatedThroughput and topkLatencyMs are the two timings taken with
// both CPUs busy. Between the box's states they move by a quarter and
// more, past any bound a gate may have, so they are reported beside the
// gated metrics and in the per-layer table, not gated
// (engine2.saturated_events_per_s, query.topk_ms): source events
// completed per second, upper decile of the timed saturate slices, and
// the top-k query's latency, lower quartile.
func (p *pass) saturatedThroughput() float64 {
	var thr []float64
	for _, r := range p.sat {
		thr = append(thr, float64(r.events)/r.wall.Seconds())
	}
	return quartile(thr, upperDecile)
}

func (p *pass) topkLatencyMs() float64 { return quartile(p.topkMs, lowerIsBetter) }

// failures counts operations against attempts: events offered, queries
// issued and slates verified; events not accepted, events of an
// invalidated paced round, failed queries and oracle mismatches.
func (p *pass) failures() (attempted, failed int) {
	attempted = p.offered + p.queriesIssued + p.verdict.checked
	failed = (p.offered - p.accepted) + p.queriesFailed + p.verdict.failed
	for _, r := range p.paced {
		if !r.valid {
			failed += r.offered
		}
	}
	return attempted, failed
}

func runWorkload(w *workloadDef, seed int64, seconds float64, traced bool, out string, human *os.File) (*result, error) {
	dataRoot := filepath.Join(out, "data")
	if !traced {
		p := newPass(w, nil)
		if err := runPasses(w, seed, seconds, 1, dataRoot, p); err != nil {
			return nil, err
		}
		m := p.endToEnd()
		printHuman(human, w, seed, seconds, p, m)
		attempted, failed := p.failures()
		return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, nil
	}

	// Traced invocation: an untraced and a traced pass at half length
	// each (their throughput difference is the tracing overhead), then
	// the layer drivers.
	rec := newRecorder(w.name)
	plain, tr := newPass(w, nil), newPass(w, rec)
	if err := runPasses(w, seed, seconds, 0.5, dataRoot, plain, tr); err != nil {
		return nil, err
	}
	layers := make(map[string]float64, len(layerMetrics))
	tr.acc.finish(tr, layers)
	layers["engine2.saturated_events_per_s"] = plain.saturatedThroughput()
	layers["query.topk_ms"] = plain.topkLatencyMs()
	layers["obs.tracing_overhead_pct"] = 100 * (plain.saturatedThroughput() - tr.saturatedThroughput()) / plain.saturatedThroughput()
	if err := runLayerDrivers(seed, seconds, dataRoot, layers); err != nil {
		return nil, fmt.Errorf("layer drivers: %w", err)
	}
	if err := rec.flush(out); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{layers[lm.name], lm.unit}
	}
	printLayers(human, w, m, rec)
	a1, f1 := plain.failures()
	a2, f2 := tr.failures()
	return &result{Correct: f1+f2 == 0, Attempted: a1 + a2, Failed: f1 + f2, Metrics: m}, nil
}

func printHuman(f *os.File, w *workloadDef, seed int64, seconds float64, p *pass, m map[string]metric) {
	fmt.Fprintf(f, "== %s  seed=%d seconds=%g  (%s)\n", w.name, seed, seconds, w.why)
	lat := 0
	var p99 []float64
	for i, s := range p.sat {
		fmt.Fprintf(f, "   slice %d: saturate %d events in %.3fs (%.0f ev/s, %.2f us cpu/ev)\n",
			i, s.events, s.wall.Seconds(), float64(s.events)/s.wall.Seconds(),
			float64(s.cpu.Microseconds())/float64(s.events))
	}
	for i, r := range p.paced {
		lat += len(r.latMs)
		p99 = append(p99, percentile(r.latMs, 0.99))
		fmt.Fprintf(f, "   round %d: paced %d events p50 %.3f ms p99 %.3f ms late<=%.2f ms backlog %d valid=%v\n",
			i, r.offered, percentile(r.latMs, 0.5), percentile(r.latMs, 0.99),
			float64(r.maxLate)/1e6, r.backlogEnd, r.valid)
	}
	samples := map[string]string{
		"setup_s":          fmt.Sprintf("lower quartile of %d set-ups", len(p.setupS)),
		"cpu_us_per_event": fmt.Sprintf("lower quartile of %d paced rounds", len(p.paced)),
		"allocs_per_event": "all paced rounds",
		"latency_p50_ms":   fmt.Sprintf("lower quartile of %d round medians, %d samples", len(p.paced), lat),
		"peak_rss_mb":      "VmHWM",
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "   %-26s %14.4f %-4s (%s)\n", k, m[k].Value, m[k].Unit, samples[k])
	}
	fmt.Fprintf(f, "   not gated: saturated_events_per_s %.0f (upper decile of %d saturate slices), topk_ms %.3f (lower quartile of %d queries, %s), latency_p99_ms %.3f (median of rounds)\n",
		p.saturatedThroughput(), len(p.sat), p.topkLatencyMs(), len(p.topkMs), p.topkHow, median(p99))
	attempted, failed := p.failures()
	fmt.Fprintf(f, "   operations: %d attempted, %d failed (%d events offered, %d accepted, %d queries, %d slates verified)\n",
		attempted, failed, p.offered, p.accepted, p.queriesIssued, p.verdict.checked)
	for _, pr := range p.verdict.problems {
		fmt.Fprintf(f, "   MISMATCH %s\n", pr)
	}
}

func printLayers(f *os.File, w *workloadDef, m map[string]metric, rec *recorder) {
	fmt.Fprintf(f, "== %s per-layer\n", w.name)
	for _, lm := range layerMetrics {
		fmt.Fprintf(f, "   %-36s %16.4f %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
	total, self := selfTimes(rec.spans)
	names := make([]string, 0, len(total))
	for name := range total {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	fmt.Fprintf(f, "   spans of the traced pass (%d recorded): total and self time\n", len(rec.spans))
	for _, name := range names {
		fmt.Fprintf(f, "   %-36s %12.3f ms %12.3f ms\n", name, float64(total[name])/1e6, float64(self[name])/1e6)
	}
}
