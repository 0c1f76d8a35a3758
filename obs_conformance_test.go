package muppet_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"muppet"
	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/query"
	"muppet/internal/queue"
)

// Observability conformance: every counter a subsystem keeps must be
// visible through /metrics, and after a workload that exercises a
// subsystem its metrics must be nonzero. The stats structs name their
// own metrics in field tags (obs.Struct refuses a numeric field with no
// tag, so NewEngine fails when one is added unexposed); this test reads
// the same tags to know which names the workloads must drive.

// taggedMetrics lists the /metrics names a stats struct's tags declare.
func taggedMetrics(stats any) []string {
	var names []string
	for t, i := reflect.TypeOf(stats), 0; i < t.NumField(); i++ {
		if name := t.Field(i).Tag.Get("metric"); name != "" && name != "-" {
			names = append(names, name)
		}
	}
	return names
}

// extraNonzero are metrics beyond those four structs' that the
// scripted workloads must drive to a nonzero value somewhere.
var extraNonzero = []string{
	"muppet_lost_events_total",
	"muppet_update_latency_seconds_count",
	"muppet_trace_ingest_accept_seconds_count",
	"muppet_trace_queue_wait_seconds_count",
	"muppet_trace_exec_seconds_count",
	"muppet_trace_emit_seconds_count",
	"muppet_trace_flush_settle_seconds_count",
	"muppet_trace_e2e_seconds_count",
	"muppet_slate_cache_hits_total",
	"muppet_slate_cache_misses_total",
	"muppet_slate_cache_size",
	"muppet_slate_store_saves_total",
	"muppet_slate_flush_rounds_total",
	"muppet_slate_flush_batches_total",
	"muppet_slate_flush_records_total",
	"muppet_slate_flush_latency_seconds_count",
	"muppet_slate_flush_batch_size_count",
	"muppet_cluster_sends_total",
	"muppet_cluster_recvs_total",
	"muppet_cluster_recv_deliveries_total",
	"muppet_outbox_frames_total",
	"muppet_outbox_deliveries_total",
	"muppet_outbox_wait_seconds_count",
	"muppet_cluster_master_failure_reports_total",
	"muppet_cluster_master_rejoin_reports_total",
	"muppet_recovery_send_failures_total",
	"muppet_recovery_failovers_total",
	"muppet_recovery_rejoins_total",
	"muppet_recovery_slates_warmed_total",
	"muppet_recovery_failover_seconds_count",
	"muppet_recovery_rejoin_seconds_count",
	"muppet_kvstore_memtable_rows",
	"muppet_kvstore_live_rows",
	"muppet_kvstore_reads_total",
	"muppet_query_latency_seconds_count",
}

// mustBePresent are registered but legitimately zero (or zero-valued
// gauges) after the scripted workloads; absence means a subsystem was
// never registered.
var mustBePresent = []string{
	"muppet_engine_inflight",
	"muppet_queue_depth",
	"muppet_outbox_depth",
	"muppet_outbox_full_waits_total",
	"muppet_slate_cache_evictions_total",
	"muppet_slate_dirty_lost_total",
	"muppet_slate_decode_errors_total",
	"muppet_slate_encode_errors_total",
	"muppet_slate_poisoned_slates",
	"muppet_slate_flush_errors_total",
	"muppet_kvstore_memtable_bytes",
	"muppet_kvstore_sstables",
	"muppet_kvstore_sstable_bytes",
	"muppet_kvstore_flushes_total",
	"muppet_kvstore_compactions_total",
	"muppet_kvstore_reads_from_mem_total",
	"muppet_kvstore_sstable_probes_total",
	"muppet_kvstore_bloom_skips_total",
	"muppet_kvstore_expired_dropped_total",
	"muppet_recovery_queued_lost_total",
	"muppet_recovery_dirty_slates_lost_total",
	"muppet_recovery_transient_failures_total",
	"muppet_recovery_suspicion_escalations_total",
	"muppet_recovery_suspected_machines",
	"muppet_transport_sequenced_batches_total",
	"muppet_transport_retries_total",
	"muppet_transport_transient_errors_total",
	"muppet_transport_retry_exhausted_total",
	"muppet_transport_indeterminate_lost_events_total",
	"muppet_transport_dedup_hits_total",
	"muppet_transport_dedup_entries",
}

// scrapeMetrics GETs /metrics through the public handler and parses
// the Prometheus text into a sample-line -> value map (the key keeps
// its label set verbatim).
func scrapeMetrics(t *testing.T, eng muppet.Engine) map[string]float64 {
	t.Helper()
	rr := httptest.NewRecorder()
	muppet.Handler(eng).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d: %s", rr.Code, rr.Body.String())
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics content type %q", ct)
	}
	lines := make(map[string]float64)
	for _, line := range strings.Split(rr.Body.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample value in %q: %v", line, err)
		}
		lines[line[:i]] = v
	}
	if len(lines) == 0 {
		t.Fatal("empty /metrics exposition")
	}
	return lines
}

// metricBase strips the label set (and keeps _sum/_count suffixes).
func metricBase(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// sumMatching folds every sample of one metric across its label sets.
func sumMatching(lines map[string]float64, base string) float64 {
	var total float64
	for k, v := range lines {
		if metricBase(k) == base {
			total += v
		}
	}
	return total
}

// checkLostLog reconciles the engine's lost log against the exposed
// per-reason counters; call only on a quiescent (drained) engine.
func checkLostLog(t *testing.T, eng muppet.Engine, lines map[string]float64) {
	t.Helper()
	for reason, n := range eng.LostEvents().Totals() {
		key := fmt.Sprintf("muppet_lost_events_total{reason=%q}", reason)
		if got := lines[key]; got != float64(n) {
			t.Errorf("lost log reason %s: /metrics reports %v, log holds %d", reason, got, n)
		}
	}
}

// obsConformanceApp is a two-stage workflow with a declared output:
// S1 -> M1 -> {S2 -> U1 (counting byte slate), SOUT (declared output)}.
func obsConformanceApp() *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		emit.Publish("S2", in.Key, in.Value)
		emit.Publish("SOUT", in.Key, in.Value)
	}}
	u1 := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return muppet.NewApp("obsconf").
		Input("S1").
		Output("SOUT").
		AddMap(m1, []string{"S1"}, []string{"S2", "SOUT"}).
		AddUpdate(u1, []string{"S2"}, nil, 0)
}

func hotEvent(i int) muppet.Event {
	return muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: "hot", Value: []byte("v")}
}

func TestMetricsConformance(t *testing.T) {
	// Nonzero coverage accumulates across the scenarios: each drives a
	// different slice of the pipeline, and at the end every metric in
	// the required set must have shown a nonzero value somewhere.
	cov := make(map[string]bool)
	present := make(map[string]bool)
	record := func(lines map[string]float64) {
		for k, v := range lines {
			base := metricBase(k)
			present[base] = true
			if v != 0 {
				cov[base] = true
			}
		}
	}

	t.Run("base-engine2", func(t *testing.T) { record(runBaseScenario(t, muppet.EngineV2)) })
	t.Run("base-engine1", func(t *testing.T) { record(runBaseScenario(t, muppet.EngineV1)) })
	t.Run("divert", func(t *testing.T) { record(runDivertScenario(t)) })
	t.Run("block", func(t *testing.T) { record(runBlockScenario(t)) })
	t.Run("crash-rejoin", func(t *testing.T) { record(runCrashRejoinScenario(t)) })
	t.Run("tcp", func(t *testing.T) {
		for _, lines := range runTCPScenario(t) {
			record(lines)
		}
	})

	required := slices.Clone(extraNonzero)
	for _, stats := range []any{engine.Stats{}, queue.Stats{}, cluster.TCPStats{}, query.CountersSnapshot{}} {
		required = append(required, taggedMetrics(stats)...)
	}
	for _, name := range required {
		if !cov[name] {
			t.Errorf("metric %s never went nonzero across the workload scenarios", name)
		}
	}
	for _, name := range mustBePresent {
		if !present[name] {
			t.Errorf("metric %s absent from every /metrics scrape — subsystem not registered?", name)
		}
	}
}

// runBaseScenario drives one engine through the common path: hot-key
// overflow under the Drop policy, a spread of keys over two machines,
// sampled tracing on every delivery, and interval flushing into a
// durable store.
func runBaseScenario(t *testing.T, version muppet.EngineVersion) map[string]float64 {
	eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
		Engine:        version,
		Machines:      2,
		QueueCapacity: 2,
		QueuePolicy:   muppet.DropOverflow,
		FlushPolicy:   muppet.FlushInterval,
		FlushEvery:    2 * time.Millisecond,
		Store:         muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true}),
		StoreLevel:    muppet.One,
		Observability: muppet.ObservabilityConfig{Tracing: true, SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	// Hammer one key into a two-slot queue until the Drop policy fires.
	for i := 0; ; i++ {
		if i >= 500_000 {
			t.Fatal("no overflow drop after 500k hot-key events")
		}
		eng.Ingest(hotEvent(i))
		if i%64 == 63 && eng.Stats().LostOverflow > 0 {
			break
		}
	}
	// A key spread exercises both machines' queues, caches, and the
	// cross-machine send path.
	batch := make([]muppet.Event, 0, 64)
	for j := 0; j < 512; j++ {
		batch = append(batch, muppet.Event{Stream: "S1", TS: muppet.Timestamp(j + 1), Key: fmt.Sprintf("k%d", j%32), Value: []byte("v")})
		if len(batch) == cap(batch) {
			if _, err := eng.IngestBatch(batch); err != nil {
				// Partial batches are expected with a two-slot queue.
				if _, ok := err.(*muppet.BatchError); !ok {
					t.Fatalf("ingest batch: %v", err)
				}
			}
			batch = batch[:0]
		}
	}
	eng.Drain()

	// One cluster-wide top-k query drives the muppet_query_* counters:
	// rows scanned, groups returned, machines scattered to, latency.
	if res, err := eng.Query(muppet.QuerySpec{Updater: "U1", Agg: "topk", K: 5, By: "count"}); err != nil || len(res.Groups) == 0 {
		t.Fatalf("topk query: res=%+v err=%v", res, err)
	}

	// Wait for an interval flush round to settle: it drives the store
	// saves and the flush-settle trace span.
	deadline := time.Now().Add(10 * time.Second)
	for {
		lines := scrapeMetrics(t, eng)
		if lines["muppet_slate_store_saves_total"] > 0 &&
			sumMatching(lines, "muppet_trace_flush_settle_seconds_count") > 0 {
			if sumMatching(lines, "muppet_trace_e2e_seconds_count") == 0 {
				t.Error("tracing at SampleRate 1 produced no end-to-end latency samples")
			}
			checkLostLog(t, eng, lines)
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush round never settled; saves=%v settle=%v",
				lines["muppet_slate_store_saves_total"],
				sumMatching(lines, "muppet_trace_flush_settle_seconds_count"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runDivertScenario drives the Divert overflow policy: full queues
// redirect deliveries onto the declared overflow stream.
func runDivertScenario(t *testing.T) map[string]float64 {
	eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
		Machines:       1,
		QueueCapacity:  2,
		QueuePolicy:    muppet.DivertOverflow,
		OverflowStream: "SOUT",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for i := 0; ; i++ {
		if i >= 500_000 {
			t.Fatal("no diverted delivery after 500k hot-key events")
		}
		eng.Ingest(hotEvent(i))
		if i%64 == 63 && eng.Stats().Diverted > 0 {
			break
		}
	}
	eng.Drain()
	lines := scrapeMetrics(t, eng)
	if sumMatching(lines, "muppet_queue_diverted_total") == 0 {
		t.Error("queue-level diverted counter stayed zero under the Divert policy")
	}
	return lines
}

// runBlockScenario drives the Block overflow policy: a full queue
// stalls the producer instead of dropping.
func runBlockScenario(t *testing.T) map[string]float64 {
	eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
		Machines:      1,
		QueueCapacity: 2,
		QueuePolicy:   muppet.BlockOverflow,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	var lines map[string]float64
	for i := 0; ; i++ {
		if i >= 100_000 {
			t.Fatal("no blocked Put after 100k hot-key events")
		}
		eng.Ingest(hotEvent(i))
		if i%512 == 511 {
			if lines = scrapeMetrics(t, eng); sumMatching(lines, "muppet_queue_blocked_total") > 0 {
				break
			}
		}
	}
	eng.Drain()
	return scrapeMetrics(t, eng)
}

// runCrashRejoinScenario drives the failure path: a crashed machine,
// detect-on-send losses, a master-coordinated failover, and a rejoin
// with store-backed cache warm-up.
func runCrashRejoinScenario(t *testing.T) map[string]float64 {
	eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
		Machines:      4,
		QueueCapacity: 1 << 12,
		FlushPolicy:   muppet.WriteThrough,
		Store:         muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3, NoDevice: true}),
		StoreLevel:    muppet.One,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()

	seed := func(ts int) {
		evs := make([]muppet.Event, 0, 64)
		for j := 0; j < 64; j++ {
			evs = append(evs, muppet.Event{Stream: "S1", TS: muppet.Timestamp(ts + j), Key: fmt.Sprintf("c%d", j), Value: []byte("v")})
		}
		if _, err := eng.IngestBatch(evs); err != nil {
			t.Fatalf("seed ingest: %v", err)
		}
	}
	seed(1)
	eng.Drain()
	eng.FlushSlates()

	victim := eng.Cluster().MachineNames()[1]
	eng.CrashMachine(victim)
	// Keep sending until a delivery lands on the corpse: the first
	// failed send both records the loss and reports the failure.
	for i := 0; ; i++ {
		if i >= 100_000 {
			t.Fatal("no machine-down loss after crash")
		}
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(1000 + i), Key: fmt.Sprintf("c%d", i%64), Value: []byte("v")})
		if i%16 == 15 && eng.Stats().LostMachineDown > 0 {
			break
		}
	}
	// Failover is master-coordinated and asynchronous; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for eng.RecoveryStatus().Failovers == 0 {
		if time.Now().After(deadline) {
			t.Fatal("failover never completed")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := eng.RejoinMachine(victim); err != nil {
		t.Fatalf("rejoin %s: %v", victim, err)
	}
	seed(5000)
	eng.Drain()

	lines := scrapeMetrics(t, eng)
	for _, name := range []string{
		"muppet_engine_lost_machine_down_total",
		"muppet_engine_failure_reports_total",
		"muppet_cluster_master_failure_reports_total",
		"muppet_cluster_master_rejoin_reports_total",
		"muppet_recovery_send_failures_total",
		"muppet_recovery_failovers_total",
		"muppet_recovery_rejoins_total",
		"muppet_recovery_slates_warmed_total",
	} {
		if sumMatching(lines, name) == 0 {
			t.Errorf("%s stayed zero through crash+rejoin", name)
		}
	}
	checkLostLog(t, eng, lines)
	return lines
}

// runTCPScenario runs a two-node TCP cluster, verifies the transport
// counters reconcile across the wire, then kills one node to drive the
// dial-error counter on the survivor.
func runTCPScenario(t *testing.T) []map[string]float64 {
	members := []string{"machine-00", "machine-01"}
	nodes := startNetNodes(t, muppet.EngineV2, netCounterApp, members)
	a, b := nodes["machine-00"], nodes["machine-01"]

	// 64 distinct keys: with two machines both certainly own several,
	// so frames flow in both directions.
	for i := 0; i < 128; i++ {
		ev := muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("r%d", i%64)}
		eng := a
		if i%2 == 1 {
			eng = b
		}
		if i%4 >= 2 {
			// Fire-and-forget ingest rides the per-destination outbox;
			// the batched call is a synchronous frame of its own.
			eng.Ingest(ev)
		} else if _, err := eng.IngestBatch([]muppet.Event{ev}); err != nil {
			t.Fatalf("tcp ingest %d: %v", i, err)
		}
	}
	drainAll(nodes)

	la, lb := scrapeMetrics(t, a), scrapeMetrics(t, b)
	// A drained node's outboxes are empty, every queued delivery went
	// out in some frame, and /status names the outbox per remote machine.
	for name, lines := range map[string]map[string]float64{"a": la, "b": lb} {
		frames, ds := lines["muppet_outbox_frames_total"], lines["muppet_outbox_deliveries_total"]
		if frames == 0 || ds < frames {
			t.Errorf("node %s outbox shipped %v deliveries in %v frames", name, ds, frames)
		}
		if depth := sumMatching(lines, "muppet_outbox_depth"); depth != 0 {
			t.Errorf("node %s outbox depth %v after drain", name, depth)
		}
	}
	rr := httptest.NewRecorder()
	muppet.Handler(a).ServeHTTP(rr, httptest.NewRequest("GET", "/status", nil))
	if !strings.Contains(rr.Body.String(), `"outbox":{"machine-01":0}`) {
		t.Errorf("/status does not report the outbox depth: %s", rr.Body.String())
	}
	// Sends are synchronous request/response, so after a drain every
	// frame one node wrote has been served by the other.
	for _, dir := range []struct {
		name    string
		out, in map[string]float64
	}{{"a->b", la, lb}, {"b->a", lb, la}} {
		out := sumMatching(dir.out, "muppet_transport_frames_out_total")
		in := sumMatching(dir.in, "muppet_transport_frames_in_total")
		if out == 0 || out != in {
			t.Errorf("%s frames do not reconcile: %v written, %v served", dir.name, out, in)
		}
	}
	if sumMatching(la, "muppet_cluster_recvs_total") == 0 {
		t.Error("node a served no remote deliveries despite alternating ingest")
	}

	// Kill b outright (listener included) and poke its peer slot on a's
	// transport: the first exchange fails on the dead pooled connection,
	// the retry redials the closed port and counts a dial error. The
	// engine path alone would not get here — detect-on-send fails the
	// machine over after the first error and stops addressing it.
	b.Stop()
	tcp := cluster.UnwrapTCP(a.Cluster().Transport())
	if tcp == nil {
		t.Fatalf("node a transport is %T, want *cluster.TCP", a.Cluster().Transport())
	}
	deadline := time.Now().Add(15 * time.Second)
	for tcp.Stats().DialErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no dial error recorded after killing the peer node")
		}
		tcp.SendBatch("machine-01", cluster.BatchID{}, nil)
		time.Sleep(2 * time.Millisecond) // let the redial backoff window pass
	}
	lerr := scrapeMetrics(t, a)
	if sumMatching(lerr, "muppet_transport_dial_errors_total") == 0 {
		t.Error("dial errors counted by the transport but absent from /metrics")
	}
	return []map[string]float64{la, lb, lerr}
}

// TestMetricsScrapeRace hammers /metrics and /statsz while ingest is
// running on both engines; run under -race this proves scrapes never
// race the hot path.
func TestMetricsScrapeRace(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{
		{"engine2", muppet.EngineV2},
		{"engine1", muppet.EngineV1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
				Engine:        tc.version,
				Machines:      2,
				QueueCapacity: 1 << 12,
				Observability: muppet.ObservabilityConfig{Tracing: true, SampleRate: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			h := muppet.Handler(eng)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			for s := 0; s < 3; s++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						for _, path := range []string{"/metrics", "/statsz", "/status"} {
							rr := httptest.NewRecorder()
							h.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
							if rr.Code != http.StatusOK {
								t.Errorf("GET %s: %d", path, rr.Code)
								return
							}
						}
					}
				}()
			}
			for i := 0; i < 10_000; i++ {
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%64), Value: []byte("v")})
			}
			eng.Drain()
			close(stop)
			wg.Wait()
		})
	}
}
