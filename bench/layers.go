package main

import (
	"runtime/metrics"
	"sort"
	"time"

	"muppet"
	"muppet/internal/obs"
)

// layerMetric names one row of the per-layer table. The list is the
// contract BENCHMARK.json's per_layer repeats (bench_test.go keeps the
// two identical). Sources, as README.md details: (a) benchmark-side
// decorators and spans, (b) the program's counters diffed across the
// measured rounds, (c) the program's sampled tracer, (d) drivers that
// call one layer's exported functions directly (drivers.go).
type layerMetric struct{ name, unit, better string }

var layerMetrics = []layerMetric{
	{"loadgen.gen_ns_per_event", "ns", "lower"},
	{"loadgen.max_late_ms", "ms", "lower"},
	{"loadgen.backlog_end_events", "count", "lower"},
	{"loadgen.window_wait_share", "1", "higher"},
	{"ingress.ingest_ns_per_event", "ns", "lower"},
	{"hashring.lookup_ns", "ns", "lower"},
	{"hashring.machine_skew", "1", "lower"},
	{"queue.putbatch_get_ns_per_event", "ns", "lower"},
	{"queue.max_depth", "count", "lower"},
	{"queue.wait_p50_us", "us", "lower"},
	{"engine2.deliveries_per_event", "1", "lower"},
	{"engine2.alloc_bytes_per_event", "B", "lower"},
	{"engine2.framework_us_per_event", "us", "lower"},
	{"engine2.exec_p50_us", "us", "lower"},
	{"engine2.emit_p50_us", "us", "lower"},
	{"engine2.max_slate_contention", "count", "lower"},
	{"engine2.gc_cpu_share", "1", "lower"},
	{"engine2.latency_p90_ms", "ms", "lower"},
	{"engine2.latency_p99_ms", "ms", "lower"},
	{"engine2.saturated_cpu_us_per_event", "us", "lower"},
	{"engine2.saturated_events_per_s", "1/s", "higher"},
	{"muppetapps.map_ns_per_call", "ns", "lower"},
	{"muppetapps.update_ns_per_call", "ns", "lower"},
	{"core.reference_events_per_s", "1/s", "higher"},
	{"slate.hit_ratio", "1", "higher"},
	{"slate.store_loads_per_kevent", "1", "lower"},
	{"slate.evictions_per_kevent", "1", "lower"},
	{"slate.saves_per_kevent", "1", "lower"},
	{"slate.flush_records_per_batch", "1", "higher"},
	{"slate.flush_p50_ms", "ms", "lower"},
	{"slate.getput_decoded_ns", "ns", "lower"},
	{"slate.miss_load_us", "us", "lower"},
	{"slate.encode_ns", "ns", "lower"},
	{"slate.decode_ns", "ns", "lower"},
	{"slate.flushdirty_us_per_record", "us", "lower"},
	{"wal.slate_batches_per_kevent", "1", "lower"},
	{"wal.appendbatch_ns_per_record", "ns", "lower"},
	{"kvstore.reads_per_kevent", "1", "lower"},
	{"kvstore.bloom_skip_ratio", "1", "higher"},
	{"kvstore.putbatch_us_per_row", "us", "lower"},
	{"kvstore.get_us", "us", "lower"},
	{"lsm.fsyncs_per_kevent", "1", "lower"},
	{"lsm.disk_write_bytes_per_event", "B", "lower"},
	{"lsm.disk_read_bytes_per_event", "B", "lower"},
	{"lsm.write_amp", "1", "lower"},
	{"lsm.put1_us", "us", "lower"},
	{"lsm.put256_us_per_row", "us", "lower"},
	{"lsm.get_mem_us", "us", "lower"},
	{"lsm.get_segment_us", "us", "lower"},
	{"lsm.flush_ms_per_mib", "ms", "lower"},
	{"lsm.compact_ms_per_mib", "ms", "lower"},
	{"lsm.reopen_ms", "ms", "lower"},
	{"cluster.frames_per_kevent", "1", "lower"},
	{"cluster.deliveries_per_frame", "1", "higher"},
	{"cluster.wire_bytes_per_event", "B", "lower"},
	{"cluster.retries", "count", "lower"},
	{"cluster.dedup_hits", "count", "lower"},
	{"cluster.tcp_rtt_us_batch1", "us", "lower"},
	{"cluster.tcp_ns_per_delivery_batch256", "ns", "lower"},
	{"query.rows_scanned_per_s", "1/s", "higher"},
	{"query.wire_bytes_per_query", "B", "lower"},
	{"query.scan_limit100_ms", "ms", "lower"},
	{"query.point_read_us", "us", "lower"},
	{"query.execute_us_per_krow", "us", "lower"},
	{"query.topk_ms", "ms", "lower"},
	{"httpapi.ingest_post_us_per_event", "us", "lower"},
	{"httpapi.slate_get_us", "us", "lower"},
	{"recovery.failover_ms", "ms", "lower"},
	{"recovery.rejoin_ms", "ms", "lower"},
	{"obs.tracing_overhead_pct", "%", "lower"},
	{"obs.metrics_gather_ms", "ms", "lower"},
}

// snapshot is every counter the benchmark diffs across a system's
// measured rounds, flattened to name → value: the program's own metric
// families summed over nodes and label sets, plus the benchmark-side
// tallies under "bench.".
type snapshot map[string]float64

// peaks are families that are high-water marks, not running totals:
// they accumulate by maximum, not by difference.
var peaks = map[string]bool{
	"muppet_queue_max_depth":             true,
	"muppet_engine_max_slate_contention": true,
}

// levels are point-in-time sizes read once, after the rounds.
var levels = map[string]bool{
	"muppet_lsm_level_bytes":    true,
	"muppet_lsm_memtable_bytes": true,
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// machineLoads is the slice of the concrete engine that reports
// per-machine accepted deliveries.
type machineLoads interface {
	MachineAccepted() map[string]uint64
}

// snapshot reads every counter; p50s, when non-nil, also receives one
// median per summary family and label set.
func (s *sut) snapshot(p50s map[string][]float64) snapshot {
	snap := snapshot{
		"bench.events":       float64(s.accepted),
		"bench.cpu_s":        cpuTime().Seconds(),
		"bench.gc_cpu_s":     gcCPUSeconds(),
		"bench.update_ns":    float64(s.ps.updateNs.Load()),
		"bench.update_calls": float64(s.ps.updates.Load()),
	}
	if s.mapper != nil {
		snap["bench.map_ns"] = float64(s.mapper.ns.Load())
		snap["bench.map_calls"] = float64(s.mapper.calls.Load())
	}
	for _, e := range s.nodes {
		for _, m := range e.Metrics().Gather() {
			switch {
			case m.Hist != nil:
				if p50s != nil && m.Hist.Count > 0 {
					p50s[m.Name] = append(p50s[m.Name], quantileOf(m.Hist, 0.5))
				}
			case peaks[m.Name]:
				snap[m.Name] = max(snap[m.Name], m.Value)
			default:
				snap[m.Name] += m.Value
			}
		}
	}
	return snap
}

// layerAcc accumulates the traced pass's (a)(b)(c) sources over the
// systems of a run.
type layerAcc struct {
	delta    snapshot             // summed after−before per system
	quantile map[string][]float64 // family → one p50 per node/machine
	skew     []float64
	gatherMs []float64

	queryRows, queryWire, queryNs float64
	queries                       int
	scanMs, pointUs               []float64
}

func newLayerAcc() *layerAcc {
	return &layerAcc{delta: snapshot{}, quantile: map[string][]float64{}}
}

// collect closes one system's measured interval.
func (a *layerAcc) collect(s *sut, before snapshot) {
	t0 := time.Now()
	s.nodes[0].Metrics().Gather()
	a.gatherMs = append(a.gatherMs, float64(time.Since(t0))/1e6)
	after := s.snapshot(a.quantile)
	for k, v := range after {
		switch {
		case peaks[k]:
			a.delta[k] = max(a.delta[k], v)
		case levels[k]:
			a.delta[k] += v
		default:
			a.delta[k] += v - before[k]
		}
	}
	var loads []float64
	for _, e := range s.nodes {
		if ml, ok := e.(machineLoads); ok {
			for _, n := range ml.MachineAccepted() {
				loads = append(loads, float64(n))
			}
		}
	}
	if len(loads) > 0 {
		sum, hi := 0.0, 0.0
		for _, l := range loads {
			sum += l
			hi = max(hi, l)
		}
		if sum > 0 {
			a.skew = append(a.skew, hi/(sum/float64(len(loads))))
		}
	}
}

func (a *layerAcc) addQueries(st muppet.QueryStats, took time.Duration, n int) {
	a.queryRows += float64(st.RowsScanned)
	a.queryWire += float64(st.WireBytes)
	a.queryNs += float64(took)
	a.queries += n
}

// scanSpec is the σ+limit scan timed as query.scan_limit100_ms: a key
// prefix, a predicate on a slate field, and a row limit.
var scanSpec = muppet.QuerySpec{
	Updater: updater, Prefix: "user0",
	Where: []muppet.QueryPred{{Field: "tweets", Op: ">=", Value: "1"}},
	Limit: 100,
}

// readDrivers times, on the settled system, the two read paths the
// gated rows do not cover: a filtered limit-100 scan and single-slate
// point reads (the scheduled client already took those on
// tcp3_query_mix).
func (a *layerAcc) readDrivers(s *sut, rec *recorder) (issued, failed int) {
	sp := rec.beginScope("query.read_drivers")
	defer rec.end(sp)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		qsp := rec.begin("query.Query")
		_, err := s.nodes[0].Query(scanSpec)
		rec.end(qsp)
		issued++
		if err != nil {
			failed++
			continue
		}
		a.scanMs = append(a.scanMs, float64(time.Since(t0))/1e6)
	}
	if s.queries != nil {
		return issued, failed
	}
	users := s.pool.users
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		psp := rec.begin("query.Slate")
		s.pointRead(users[(i*7919)%len(users)])
		rec.end(psp)
		a.pointUs = append(a.pointUs, float64(time.Since(t0))/1e3)
	}
	return issued + 200, failed
}

func quantileOf(h *obs.HistSample, q float64) float64 {
	for _, x := range h.Quantiles {
		if x.Q == q {
			return x.V
		}
	}
	return 0
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func medianOf(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return median(vs)
}

// finish reduces the accumulated sources and the traced pass's rounds
// to the (a)(b)(c) rows of the per-layer table.
func (a *layerAcc) finish(p *pass, out map[string]float64) {
	d := a.delta
	ev := d["bench.events"]
	kev := ev / 1000

	var satEvents, satWall, genNs, waitNs, ingestNs, allocBytes, pacedEvents float64
	var satCPU, p90, p99 []float64
	var maxLate time.Duration
	backlog := 0
	for _, r := range p.sat {
		satEvents += float64(r.events)
		satWall += float64(r.wall)
		genNs += float64(r.genNs)
		waitNs += float64(r.waitNs)
		ingestNs += float64(r.ingestNs)
		allocBytes += float64(r.allocBytes)
		satCPU = append(satCPU, float64(r.cpu.Microseconds())/float64(r.events))
	}
	for _, r := range p.paced {
		pacedEvents += float64(r.offered)
		ingestNs += float64(r.ingestNs)
		maxLate = max(maxLate, r.maxLate)
		backlog = max(backlog, r.backlogEnd)
		p90 = append(p90, percentile(r.latMs, 0.9))
		p99 = append(p99, percentile(r.latMs, 0.99))
	}
	out["loadgen.gen_ns_per_event"] = ratio(genNs, satEvents)
	out["loadgen.max_late_ms"] = float64(maxLate) / 1e6
	out["loadgen.backlog_end_events"] = float64(backlog)
	out["loadgen.window_wait_share"] = ratio(waitNs, satWall)
	out["ingress.ingest_ns_per_event"] = ratio(ingestNs, satEvents+pacedEvents)
	out["hashring.machine_skew"] = medianOf(a.skew)
	out["queue.max_depth"] = d["muppet_queue_max_depth"]
	out["queue.wait_p50_us"] = medianOf(a.quantile["muppet_trace_queue_wait_seconds"]) * 1e6

	appUs := ratio(d["bench.map_ns"]+d["bench.update_ns"], ev) / 1e3
	out["engine2.deliveries_per_event"] = ratio(d["muppet_engine_processed_total"], ev)
	out["engine2.alloc_bytes_per_event"] = ratio(allocBytes, satEvents)
	out["engine2.framework_us_per_event"] = p.endToEnd()["cpu_us_per_event"].Value - appUs
	out["engine2.exec_p50_us"] = medianOf(a.quantile["muppet_trace_exec_seconds"]) * 1e6
	out["engine2.emit_p50_us"] = medianOf(a.quantile["muppet_trace_emit_seconds"]) * 1e6
	out["engine2.max_slate_contention"] = d["muppet_engine_max_slate_contention"]
	out["engine2.gc_cpu_share"] = ratio(d["bench.gc_cpu_s"], d["bench.cpu_s"])
	out["engine2.latency_p90_ms"] = medianOf(p90)
	out["engine2.latency_p99_ms"] = medianOf(p99)
	out["engine2.saturated_cpu_us_per_event"] = medianOf(satCPU)
	out["muppetapps.map_ns_per_call"] = ratio(d["bench.map_ns"], d["bench.map_calls"])
	out["muppetapps.update_ns_per_call"] = ratio(d["bench.update_ns"], d["bench.update_calls"])

	hits, misses := d["muppet_slate_cache_hits_total"], d["muppet_slate_cache_misses_total"]
	out["slate.hit_ratio"] = ratio(hits, hits+misses)
	out["slate.store_loads_per_kevent"] = ratio(d["muppet_slate_store_loads_total"], kev)
	out["slate.evictions_per_kevent"] = ratio(d["muppet_slate_cache_evictions_total"], kev)
	out["slate.saves_per_kevent"] = ratio(d["muppet_slate_store_saves_total"], kev)
	out["slate.flush_records_per_batch"] = ratio(d["muppet_slate_flush_records_total"], d["muppet_slate_flush_batches_total"])
	out["slate.flush_p50_ms"] = medianOf(a.quantile["muppet_slate_flush_latency_seconds"]) * 1e3
	out["wal.slate_batches_per_kevent"] = ratio(d["muppet_slate_wal_batches_total"], kev)
	out["kvstore.reads_per_kevent"] = ratio(d["muppet_kvstore_reads_total"], kev)
	skips, probes := d["muppet_kvstore_bloom_skips_total"], d["muppet_kvstore_sstable_probes_total"]
	out["kvstore.bloom_skip_ratio"] = ratio(skips, skips+probes)
	out["lsm.fsyncs_per_kevent"] = ratio(d["muppet_lsm_fsyncs_total"], kev)
	out["lsm.disk_write_bytes_per_event"] = ratio(d["muppet_lsm_disk_write_bytes_total"], ev)
	out["lsm.disk_read_bytes_per_event"] = ratio(d["muppet_lsm_disk_read_bytes_total"], ev)
	out["lsm.write_amp"] = ratio(d["muppet_lsm_disk_write_bytes_total"], d["muppet_lsm_level_bytes"]+d["muppet_lsm_memtable_bytes"])

	frames := d["muppet_transport_frames_out_total"]
	out["cluster.frames_per_kevent"] = ratio(frames, kev)
	out["cluster.deliveries_per_frame"] = ratio(d["muppet_cluster_recvs_total"], d["muppet_transport_frames_in_total"])
	out["cluster.wire_bytes_per_event"] = ratio(d["muppet_transport_bytes_out_total"], ev)
	out["cluster.retries"] = d["muppet_transport_retries_total"]
	out["cluster.dedup_hits"] = d["muppet_transport_dedup_hits_total"]

	out["query.rows_scanned_per_s"] = ratio(a.queryRows, a.queryNs/1e9)
	out["query.wire_bytes_per_query"] = ratio(a.queryWire, float64(a.queries))
	out["query.scan_limit100_ms"] = medianOf(a.scanMs)
	sort.Float64s(a.pointUs)
	out["query.point_read_us"] = percentile(a.pointUs, 0.5)
	out["obs.metrics_gather_ms"] = medianOf(a.gatherMs)
}
