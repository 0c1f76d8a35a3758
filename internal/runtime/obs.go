package runtime

import (
	"errors"

	"muppet/internal/cluster"
	"muppet/internal/kvstore"
	"muppet/internal/obs"
	"muppet/internal/slate"
)

// liveMaps are the engine's per-key readings: every loss ever logged by
// reason, the depth of each hosted machine's most loaded queue, and the
// deliveries queued for each remote machine's sender (none on an
// all-local engine).
type liveMaps struct {
	Lost        map[string]uint64 `metric:"muppet_lost_events_total" label:"reason" help:"Deliveries recorded in the lost log, by reason."`
	QueueDepth  map[string]int    `metric:"muppet_queue_depth" label:"machine" help:"Depth of the most loaded queue per machine."`
	OutboxDepth map[string]int    `metric:"muppet_outbox_depth" label:"machine" help:"Deliveries queued for a remote machine's sender."`
}

// slateCacheStats is the cache snapshot a scrape reads; a variable so a
// test can count the reads one scrape makes.
var slateCacheStats = (*Runtime).cacheStats

// registerObs wires every subsystem the engine owns into its metrics
// registry. A stats struct is its own registration: obs.Struct exposes
// each tagged field from one snapshot per scrape, so the hot path pays
// nothing and the values of one scrape agree with each other. What is
// not a struct field — histograms, a few lone counters, the muppet_lsm_*
// view of a durable store — is registered here directly.
func (r *Runtime) registerObs() error {
	reg, clu := r.reg, r.clu
	transport := obs.L("transport", clu.TransportName())
	errs := []error{
		obs.Struct(reg, nil, r.Stats),
		obs.Struct(reg, nil, r.aggregateQueueStats),
		obs.Struct(reg, nil, func() slate.CacheStats { return slateCacheStats(r) }),
		obs.Struct(reg, nil, r.FlushStats),
		obs.Struct(reg, nil, r.out.OutboxStats),
		obs.Struct(reg, nil, r.queries.Snapshot),
		obs.Struct(reg, nil, func() liveMaps {
			return liveMaps{Lost: r.lost.Totals(), QueueDepth: r.LargestQueues(), OutboxDepth: r.out.OutboxDepths()}
		}),
		obs.Struct(reg, transport, clu.DeliveryStats),
		obs.Struct(reg, nil, r.rec.Counters),
	}
	obs.Summary(reg, "muppet_update_latency_seconds",
		"End-to-end latency from external ingress to slate update.", nil, r.counters.Latency)
	obs.Summary(reg, "muppet_outbox_wait_seconds",
		"Sampled time from a delivery's append to the acknowledgement of the frame that carried it.", nil, r.out.OutboxWait())
	obs.Summary(reg, "muppet_query_latency_seconds",
		"End-to-end query latency, scatter to merged answer.", nil, r.queries.Latency)
	reg.GaugeInt("muppet_engine_inflight", "Deliveries accepted but not yet fully processed.", nil, r.tracker.InFlight)
	obs.Summary(reg, "muppet_recovery_failover_seconds",
		"Wall-clock latency of completed failovers.", nil, r.rec.FailoverLatency())
	obs.Summary(reg, "muppet_recovery_rejoin_seconds",
		"Wall-clock latency of completed rejoins.", nil, r.rec.RejoinLatency())

	// Each cell's cache registers its flush histograms under the cell's
	// name: per worker under 1.0's disparate caches, per machine under
	// 2.0's central one.
	for _, c := range r.cells {
		ls := obs.L("machine", c.Name())
		obs.Summary(reg, "muppet_slate_flush_latency_seconds",
			"Group-commit flush round latency per machine.", ls, c.Cache.FlushLatency())
		obs.Summary(reg, "muppet_slate_flush_batch_size",
			"Records per group-commit multi-put.", ls, c.Cache.BatchSizes())
	}

	reg.Counter("muppet_cluster_sends_total", "Machine-addressed sends issued by this node.", transport, clu.Sends)
	reg.Counter("muppet_cluster_recvs_total", "Remote-origin deliveries received by this node.", transport, clu.Recvs)
	reg.Counter("muppet_cluster_recv_deliveries_total",
		"Deliveries carried by the remote-origin batches this node received (recvs_total counts the batches).", transport, clu.RecvDeliveries)
	if ch := cluster.UnwrapChaos(clu.Transport()); ch != nil {
		ls := obs.L("transport", ch.Name())
		errs = append(errs, obs.Struct(reg, ls, ch.Stats, func(s cluster.ChaosStats, emit func(obs.Metric)) {
			emit(obs.Sample("muppet_chaos_faults_injected_total", "Chaos faults injected, all kinds.", ls, float64(s.Injected())))
		}))
	}
	if tcp := cluster.UnwrapTCP(clu.Transport()); tcp != nil {
		errs = append(errs, obs.Struct(reg, transport, tcp.Stats))
	}

	if store := r.cfg.Store; store != nil {
		// The muppet_lsm_* names read the snapshot the muppet_kvstore_*
		// fields were read from: one TotalStats per gather, which reads
		// counters only, never the stored rows.
		errs = append(errs, obs.Struct(reg, nil, store.TotalStats, lsmMetrics))
	}
	if r.tracer != nil {
		reg.Register(r.tracer)
	}
	return errors.Join(errs...)
}

// lsmMetrics names a durable store's real I/O and on-disk shape; a
// store with no node on disk exposes none of them.
func lsmMetrics(s kvstore.NodeStats, emit func(obs.Metric)) {
	if !s.Durable {
		return
	}
	emit(obs.Sample("muppet_lsm_segments", "Segment files across durable nodes.", nil, float64(s.SSTables)))
	emit(obs.Sample("muppet_lsm_level_bytes", "Bytes held in segment files.", nil, float64(s.SSTableBytes)))
	emit(obs.Sample("muppet_lsm_memtable_bytes", "Bytes in durable-node memtables (WAL-backed).", nil, float64(s.MemtableBytes)))
	emit(obs.Sample("muppet_lsm_wal_bytes", "Bytes in active write-ahead logs.", nil, float64(s.WALBytes)))
	emit(obs.Sample("muppet_lsm_compaction_backlog", "Segments past the compaction threshold.", nil, float64(s.CompactionBacklog)))
	emit(obs.Sample("muppet_lsm_fsyncs_total", "Real fsyncs issued by durable engines.", nil, float64(s.Fsyncs)))
	emit(obs.Sample("muppet_lsm_disk_write_bytes_total", "Real bytes written (WAL and segments).", nil, float64(s.DiskBytesWritten)))
	emit(obs.Sample("muppet_lsm_disk_read_bytes_total", "Real bytes read off segment files.", nil, float64(s.DiskBytesRead)))
}

// Metrics exposes the engine's observability registry; httpapi serves
// it as /metrics and /statsz.
func (r *Runtime) Metrics() *obs.Registry { return r.reg }

// Tracer exposes the lifecycle tracer, nil when tracing is disabled.
func (r *Runtime) Tracer() *obs.Tracer { return r.tracer }
