package obs

import (
	"sort"

	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/kvstore"
	"muppet/internal/query"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// This file holds the registration glue the engine runtime uses: each
// subsystem's existing stats snapshot becomes a set of lazily-sampled
// collectors, so the registry adds no accounting of its own to the hot
// path — a scrape reads the counters the subsystems already keep.

// RegisterEngineStats registers every engine.Stats field. The snapshot
// closure is invoked per metric per scrape; it must be cheap (atomic
// loads).
func RegisterEngineStats(r *Registry, stats func() engine.Stats) {
	c := func(name, help string, get func(engine.Stats) uint64) {
		r.Counter(name, help, nil, func() uint64 { return get(stats()) })
	}
	c("muppet_engine_ingested_total", "External input deliveries accepted.",
		func(s engine.Stats) uint64 { return s.Ingested })
	c("muppet_engine_processed_total", "Function invocations completed.",
		func(s engine.Stats) uint64 { return s.Processed })
	c("muppet_engine_emitted_total", "Events published by functions and accepted for delivery.",
		func(s engine.Stats) uint64 { return s.Emitted })
	c("muppet_engine_slate_updates_total", "ReplaceSlate applications.",
		func(s engine.Stats) uint64 { return s.SlateUpdates })
	c("muppet_engine_lost_overflow_total", "Deliveries dropped on a full queue (Drop policy).",
		func(s engine.Stats) uint64 { return s.LostOverflow })
	c("muppet_engine_diverted_total", "Deliveries redirected to the overflow stream (Divert policy).",
		func(s engine.Stats) uint64 { return s.Diverted })
	c("muppet_engine_lost_machine_down_total", "Deliveries lost to a down destination machine.",
		func(s engine.Stats) uint64 { return s.LostMachineDown })
	c("muppet_engine_failure_reports_total", "Machine-failure reports made to the master.",
		func(s engine.Stats) uint64 { return s.FailureReports })
	c("muppet_engine_output_dropped_total", "Output-ring events overwritten before being read.",
		func(s engine.Stats) uint64 { return s.OutputDropped })
	r.GaugeInt("muppet_engine_max_slate_contention",
		"Largest number of workers observed updating one slate concurrently.", nil,
		func() int64 { return int64(stats().MaxSlateContention) })
}

// RegisterLatency registers the engine's end-to-end ingest-to-slate
// latency histogram.
func RegisterLatency(r *Registry, c *engine.Counters) {
	r.DurationSummary("muppet_update_latency_seconds",
		"End-to-end latency from external ingress to slate update.", nil, c.Latency)
}

// RegisterTracker registers the in-flight delivery gauge.
func RegisterTracker(r *Registry, t *engine.Tracker) {
	r.GaugeInt("muppet_engine_inflight", "Deliveries accepted but not yet fully processed.",
		nil, t.InFlight)
}

// RegisterLostLog registers per-reason lost-delivery counters; reasons
// appear as they are first recorded.
func RegisterLostLog(r *Registry, l *engine.LostLog) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		totals := l.Totals()
		reasons := make([]string, 0, len(totals))
		for reason := range totals {
			reasons = append(reasons, reason)
		}
		sort.Strings(reasons)
		for _, reason := range reasons {
			emit(Metric{
				Name:   "muppet_lost_events_total",
				Help:   "Deliveries recorded in the lost log, by reason.",
				Type:   TypeCounter,
				Labels: L("reason", reason),
				Value:  float64(totals[reason]),
			})
		}
	}))
}

// RegisterQueueStats registers the engine-wide queue accounting
// aggregate plus a live per-machine depth gauge.
func RegisterQueueStats(r *Registry, stats func() queue.Stats, depths func() map[string]int) {
	c := func(name, help string, get func(queue.Stats) uint64) {
		r.Counter(name, help, nil, func() uint64 { return get(stats()) })
	}
	c("muppet_queue_offered_total", "Elements offered to worker queues.",
		func(s queue.Stats) uint64 { return s.Offered })
	c("muppet_queue_accepted_total", "Elements accepted by worker queues.",
		func(s queue.Stats) uint64 { return s.Accepted })
	c("muppet_queue_dropped_total", "Elements dropped by full worker queues.",
		func(s queue.Stats) uint64 { return s.Dropped })
	c("muppet_queue_diverted_total", "Elements diverted by full worker queues.",
		func(s queue.Stats) uint64 { return s.Diverted })
	c("muppet_queue_blocked_total", "Put calls that had to wait under the Block policy.",
		func(s queue.Stats) uint64 { return s.Blocked })
	r.GaugeInt("muppet_queue_max_depth", "Deepest any worker queue ever got.", nil,
		func() int64 { return int64(stats().MaxDepth) })
	if depths != nil {
		registerMachineGauge(r, "muppet_queue_depth", "Depth of the most loaded queue per machine.", depths)
	}
}

// registerMachineGauge registers one gauge sample per machine, in name
// order, from a live per-machine snapshot.
func registerMachineGauge(r *Registry, name, help string, values func() map[string]int) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		v := values()
		machines := make([]string, 0, len(v))
		for m := range v {
			machines = append(machines, m)
		}
		sort.Strings(machines)
		for _, m := range machines {
			emit(Metric{Name: name, Help: help, Type: TypeGauge, Labels: L("machine", m), Value: float64(v[m])})
		}
	}))
}

// RegisterOutbox registers the per-destination emit outboxes: what the
// senders shipped, how often a producer found an outbox full, the live
// depth per remote machine, and the sampled append-to-acknowledged wait
// — the time a remote emit spends outside the tracer's emit span. An
// all-local engine has no outbox; its counters read zero.
func RegisterOutbox(r *Registry, c *engine.Courier) {
	cnt := func(name, help string, get func(engine.OutboxStats) uint64) {
		r.Counter(name, help, nil, func() uint64 { return get(c.OutboxStats()) })
	}
	cnt("muppet_outbox_frames_total", "Frames (one SendBatch exchange each) shipped by the outbox senders.",
		func(s engine.OutboxStats) uint64 { return s.Frames })
	cnt("muppet_outbox_deliveries_total", "Deliveries carried by the outbox senders' frames.",
		func(s engine.OutboxStats) uint64 { return s.Deliveries })
	cnt("muppet_outbox_full_waits_total", "Appends that found their outbox full and waited for the sender.",
		func(s engine.OutboxStats) uint64 { return s.FullWaits })
	registerMachineGauge(r, "muppet_outbox_depth", "Deliveries queued for a remote machine's sender.", c.OutboxDepths)
	r.DurationSummary("muppet_outbox_wait_seconds",
		"Sampled time from a delivery's append to the acknowledgement of the frame that carried it.", nil, c.OutboxWait())
}

// RegisterQueryStats registers the query subsystem's counters: queries
// by kind, scan/return volume, scatter fan-out, and the end-to-end
// latency histogram.
func RegisterQueryStats(r *Registry, qc *query.Counters) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		snap := qc.Snapshot()
		kinds := make([]string, 0, len(snap.Kinds))
		for kind := range snap.Kinds {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			emit(Metric{
				Name:   "muppet_query_queries_total",
				Help:   "Queries answered, by kind (scan, count, sum, min, max, topk).",
				Type:   TypeCounter,
				Labels: L("kind", kind),
				Value:  float64(snap.Kinds[kind]),
			})
		}
	}))
	r.Counter("muppet_query_rows_scanned_total", "Slate rows scanned by query executions.", nil,
		func() uint64 { return qc.Snapshot().RowsScanned })
	r.Counter("muppet_query_rows_returned_total", "Rows and groups returned by queries.", nil,
		func() uint64 { return qc.Snapshot().RowsReturned })
	r.Counter("muppet_query_fanout_nodes_total", "Machines scattered to across all queries.", nil,
		func() uint64 { return qc.Snapshot().FanoutNodes })
	r.DurationSummary("muppet_query_latency_seconds",
		"End-to-end query latency, scatter to merged answer.", nil, qc.Latency)
}

// RegisterCacheStats registers the aggregated slate-cache counters.
func RegisterCacheStats(r *Registry, stats func() slate.CacheStats) {
	c := func(name, help string, get func(slate.CacheStats) uint64) {
		r.Counter(name, help, nil, func() uint64 { return get(stats()) })
	}
	c("muppet_slate_cache_hits_total", "Slate-cache hits.",
		func(s slate.CacheStats) uint64 { return s.Hits })
	c("muppet_slate_cache_misses_total", "Slate-cache misses.",
		func(s slate.CacheStats) uint64 { return s.Misses })
	c("muppet_slate_store_loads_total", "Slate loads from the durable store.",
		func(s slate.CacheStats) uint64 { return s.StoreLoads })
	c("muppet_slate_store_saves_total", "Slate writes to the durable store.",
		func(s slate.CacheStats) uint64 { return s.StoreSaves })
	c("muppet_slate_cache_evictions_total", "Clean slates evicted under capacity pressure.",
		func(s slate.CacheStats) uint64 { return s.Evictions })
	c("muppet_slate_dirty_lost_total", "Dirty slates lost to crashes.",
		func(s slate.CacheStats) uint64 { return s.DirtyLost })
	c("muppet_slate_decode_errors_total", "Slate rows that failed to decode.",
		func(s slate.CacheStats) uint64 { return s.DecodeErrors })
	c("muppet_slate_encode_errors_total", "Slate values that failed to encode.",
		func(s slate.CacheStats) uint64 { return s.EncodeErrors })
	r.GaugeInt("muppet_slate_cache_size", "Slates resident in cache.", nil,
		func() int64 { return int64(stats().Size) })
}

// RegisterFlushStats registers the aggregated group-commit flush
// counters.
func RegisterFlushStats(r *Registry, stats func() slate.FlushStats) {
	c := func(name, help string, get func(slate.FlushStats) uint64) {
		r.Counter(name, help, nil, func() uint64 { return get(stats()) })
	}
	c("muppet_slate_flush_rounds_total", "Group-commit flush rounds.",
		func(s slate.FlushStats) uint64 { return s.Flushes })
	c("muppet_slate_flush_batches_total", "Multi-put batches written by flush rounds.",
		func(s slate.FlushStats) uint64 { return s.Batches })
	c("muppet_slate_flush_records_total", "Slate records written by flush rounds.",
		func(s slate.FlushStats) uint64 { return s.Records })
	c("muppet_slate_flush_errors_total", "Flush batches that failed.",
		func(s slate.FlushStats) uint64 { return s.Errors })
}

// RegisterShardedStore registers one machine's sharded-store
// histograms (flush latency, batch sizes) and slate-WAL counters,
// labelled with the machine name.
func RegisterShardedStore(r *Registry, machine string, s *slate.Sharded) {
	ls := L("machine", machine)
	r.DurationSummary("muppet_slate_flush_latency_seconds",
		"Group-commit flush round latency per machine.", ls, s.FlushLatency())
	r.IntSummary("muppet_slate_flush_batch_size",
		"Records per group-commit multi-put.", ls, s.BatchSizes())
	if w := s.WAL(); w != nil {
		r.Counter("muppet_slate_wal_batches_total",
			"Flush batches appended to the slate group-commit WAL.", ls,
			func() uint64 { b, _, _ := w.Stats(); return b })
		r.Counter("muppet_slate_wal_records_total",
			"Slate records appended to the group-commit WAL.", ls,
			func() uint64 { _, rec, _ := w.Stats(); return rec })
		r.GaugeInt("muppet_slate_wal_retained",
			"Flush batches currently retained in the WAL.", ls,
			func() int64 { _, _, ret := w.Stats(); return int64(ret) })
	}
}

// RegisterCluster registers the node's cluster-level delivery counters
// and, when the node is wired over TCP, the transport's
// dial/frame/byte counters.
func RegisterCluster(r *Registry, c *cluster.Cluster) {
	name := c.TransportName()
	ls := L("transport", name)
	r.Counter("muppet_cluster_sends_total", "Machine-addressed sends issued by this node.", ls,
		func() uint64 { sends, _ := c.NetworkStats(); return sends })
	r.Counter("muppet_cluster_recvs_total", "Remote-origin deliveries received by this node.", ls,
		func() uint64 { return c.Recvs() })
	r.Counter("muppet_cluster_recv_deliveries_total",
		"Deliveries carried by the remote-origin batches this node received (recvs_total counts the batches).", ls,
		func() uint64 { return c.RecvDeliveries() })
	r.Gauge("muppet_cluster_sim_network_seconds",
		"Accumulated simulated network latency.", ls,
		func() float64 { _, simTime := c.NetworkStats(); return simTime.Seconds() })
	r.Counter("muppet_cluster_master_failure_reports_total",
		"Failure reports accepted by the master.", nil, c.Master().Reports)
	r.Counter("muppet_cluster_master_rejoin_reports_total",
		"Rejoin broadcasts issued by the master.", nil, c.Master().RejoinReports)
	r.Counter("muppet_transport_sequenced_batches_total",
		"Sequenced remote batches issued (BatchIDs stamped).", ls,
		func() uint64 { return c.DeliveryStats().Sequenced })
	r.Counter("muppet_transport_retries_total",
		"Remote-batch re-attempts after transient transport faults.", ls,
		func() uint64 { return c.DeliveryStats().Retries })
	r.Counter("muppet_transport_transient_errors_total",
		"Transient transport faults observed on remote sends.", ls,
		func() uint64 { return c.DeliveryStats().TransientErrors })
	r.Counter("muppet_transport_retry_exhausted_total",
		"Remote batches whose whole retry budget failed.", ls,
		func() uint64 { return c.DeliveryStats().RetryExhausted })
	r.Counter("muppet_transport_indeterminate_lost_events_total",
		"Events reported lost on exhausted retries whose outcome is unknown (the receiver may have applied them).", ls,
		func() uint64 { return c.DeliveryStats().IndeterminateLost })
	r.Counter("muppet_transport_dedup_hits_total",
		"Duplicate remote-origin batches absorbed by the dedup window.", ls,
		func() uint64 { return c.DeliveryStats().DedupHits })
	r.Gauge("muppet_transport_dedup_entries",
		"Resident entries in the receiver-side dedup window.", ls,
		func() float64 { return float64(c.DeliveryStats().DedupEntries) })
	if ch := cluster.UnwrapChaos(c.Transport()); ch != nil {
		cl := L("transport", ch.Name())
		g := func(name, help string, get func(cluster.ChaosStats) uint64) {
			r.Counter(name, help, cl, func() uint64 { return get(ch.Stats()) })
		}
		g("muppet_chaos_faults_injected_total", "Chaos faults injected, all kinds.",
			func(s cluster.ChaosStats) uint64 { return s.Injected() })
		g("muppet_chaos_dropped_requests_total", "Request frames dropped by chaos.",
			func(s cluster.ChaosStats) uint64 { return s.DroppedReqs })
		g("muppet_chaos_dropped_responses_total", "Response frames dropped by chaos after delivery.",
			func(s cluster.ChaosStats) uint64 { return s.DroppedResps })
		g("muppet_chaos_duplicates_total", "Batches duplicated on the wire by chaos.",
			func(s cluster.ChaosStats) uint64 { return s.Duplicates })
		g("muppet_chaos_partition_drops_total", "Sends dropped by scripted partitions.",
			func(s cluster.ChaosStats) uint64 { return s.PartitionDrops })
	}
	tcp := cluster.UnwrapTCP(c.Transport())
	if tcp == nil {
		return
	}
	t := func(name, help string, get func(cluster.TCPStats) uint64) {
		r.Counter(name, help, ls, func() uint64 { return get(tcp.Stats()) })
	}
	t("muppet_transport_dials_total", "Successful outbound transport connections.",
		func(s cluster.TCPStats) uint64 { return s.Dials })
	t("muppet_transport_dial_errors_total", "Failed transport dial attempts.",
		func(s cluster.TCPStats) uint64 { return s.DialErrors })
	t("muppet_transport_frames_out_total", "Request frames written to peers.",
		func(s cluster.TCPStats) uint64 { return s.FramesOut })
	t("muppet_transport_frames_in_total", "Request frames served for peers.",
		func(s cluster.TCPStats) uint64 { return s.FramesIn })
	t("muppet_transport_bytes_out_total", "Encoded request bytes written to peers.",
		func(s cluster.TCPStats) uint64 { return s.BytesOut })
	t("muppet_transport_bytes_in_total", "Encoded request bytes served for peers.",
		func(s cluster.TCPStats) uint64 { return s.BytesIn })
}

// RegisterKVStore registers the durable store's aggregated node stats
// plus per-node simulated-device counters. All aggregate metrics are
// emitted from ONE TotalStats snapshot per scrape — TotalStats merges
// every node (and materializes each one's live-row view), so sampling
// it per metric would multiply that cost by the metric count.
func RegisterKVStore(r *Registry, kc *kvstore.Cluster) {
	type def struct {
		name, help string
		typ        Type
		get        func(kvstore.NodeStats) float64
	}
	defs := []def{
		{"muppet_kvstore_memtable_rows", "Rows buffered in memtables.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.MemtableRows) }},
		{"muppet_kvstore_memtable_bytes", "Bytes buffered in memtables.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.MemtableBytes) }},
		{"muppet_kvstore_sstables", "SSTables on disk.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.SSTables) }},
		{"muppet_kvstore_sstable_bytes", "Bytes held in SSTables.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.SSTableBytes) }},
		{"muppet_kvstore_flushes_total", "Memtable flushes.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.Flushes) }},
		{"muppet_kvstore_compactions_total", "SSTable compactions.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.Compactions) }},
		{"muppet_kvstore_reads_total", "Row reads served.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.Reads) }},
		{"muppet_kvstore_reads_from_mem_total", "Row reads served from the memtable.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.ReadsFromMem) }},
		{"muppet_kvstore_sstable_probes_total", "SSTables actually read from device.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.SSTableProbes) }},
		{"muppet_kvstore_bloom_skips_total", "SSTable reads skipped by bloom filters.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.BloomSkips) }},
		{"muppet_kvstore_expired_dropped_total", "Rows GC'd by compaction (TTL or tombstone).", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.ExpiredDropped) }},
		{"muppet_kvstore_live_rows", "Live rows across memtable and SSTables.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.LiveRows) }},
	}
	// Durable-engine metrics, emitted only when at least one node has an
	// on-disk lsm engine mounted.
	lsmDefs := []def{
		{"muppet_lsm_segments", "Segment files across durable nodes.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.SSTables) }},
		{"muppet_lsm_level_bytes", "Bytes held in segment files.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.SSTableBytes) }},
		{"muppet_lsm_memtable_bytes", "Bytes in durable-node memtables (WAL-backed).", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.MemtableBytes) }},
		{"muppet_lsm_wal_bytes", "Bytes in active write-ahead logs.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.WALBytes) }},
		{"muppet_lsm_compaction_backlog", "Segments past the compaction threshold.", TypeGauge,
			func(s kvstore.NodeStats) float64 { return float64(s.CompactionBacklog) }},
		{"muppet_lsm_fsyncs_total", "Real fsyncs issued by durable engines.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.Fsyncs) }},
		{"muppet_lsm_disk_write_bytes_total", "Real bytes written (WAL and segments).", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.DiskBytesWritten) }},
		{"muppet_lsm_disk_read_bytes_total", "Real bytes read off segment files.", TypeCounter,
			func(s kvstore.NodeStats) float64 { return float64(s.DiskBytesRead) }},
	}
	r.Register(CollectorFunc(func(emit func(Metric)) {
		s := kc.TotalStats()
		for _, d := range defs {
			emit(Metric{Name: d.name, Help: d.help, Type: d.typ, Value: d.get(s)})
		}
		if !s.Durable {
			return
		}
		for _, d := range lsmDefs {
			emit(Metric{Name: d.name, Help: d.help, Type: d.typ, Value: d.get(s)})
		}
	}))
	for _, name := range kc.Nodes() {
		node := kc.Node(name)
		if node == nil || node.Device() == nil {
			continue
		}
		dev := node.Device()
		ls := L("node", name, "profile", dev.Stats().ProfileName)
		r.Counter("muppet_device_read_ops_total", "Simulated device read operations.", ls,
			func() uint64 { return dev.Stats().ReadOps })
		r.Counter("muppet_device_write_ops_total", "Simulated device write operations.", ls,
			func() uint64 { return dev.Stats().WriteOps })
		r.Counter("muppet_device_read_bytes_total", "Simulated device bytes read.", ls,
			func() uint64 { return uint64(dev.Stats().ReadBytes) })
		r.Counter("muppet_device_write_bytes_total", "Simulated device bytes written.", ls,
			func() uint64 { return uint64(dev.Stats().WriteBytes) })
		r.Gauge("muppet_device_busy_seconds", "Accumulated simulated device busy time.", ls,
			func() float64 { return dev.Stats().BusyTime.Seconds() })
	}
}
