package runtime

import "muppet/internal/obs"

// registerObs wires every subsystem the engine owns into its metrics
// registry: engine counters, queue accounting, the slate caches and
// their group-commit flushing, the durable kvstore and its simulated
// devices, the cluster transport, the recovery manager, and (when
// enabled) the lifecycle tracer. Collectors are closures over the
// subsystems' existing snapshots, so scrapes read live counters and
// the hot path pays nothing.
func (r *Runtime) registerObs() {
	obs.RegisterEngineStats(r.reg, r.Stats)
	obs.RegisterLatency(r.reg, r.counters)
	obs.RegisterTracker(r.reg, r.tracker)
	obs.RegisterLostLog(r.reg, r.lost)
	obs.RegisterQueryStats(r.reg, r.queries)
	obs.RegisterQueueStats(r.reg, r.aggregateQueueStats, r.LargestQueues)
	obs.RegisterCacheStats(r.reg, r.SlateCacheStats)
	obs.RegisterFlushStats(r.reg, r.FlushStats)
	// Each cell's cache registers its flush histograms and WAL counters
	// under the cell's name: per worker under 1.0's disparate caches,
	// per machine under 2.0's central one.
	for _, c := range r.cells {
		obs.RegisterShardedStore(r.reg, c.Name(), c.Cache)
	}
	obs.RegisterCluster(r.reg, r.clu)
	obs.RegisterOutbox(r.reg, r.out)
	if r.cfg.Store != nil {
		obs.RegisterKVStore(r.reg, r.cfg.Store)
	}
	r.rec.RegisterObs(r.reg)
	if r.tracer != nil {
		r.reg.Register(r.tracer)
	}
}

// Metrics exposes the engine's observability registry; httpapi serves
// it as /metrics and /statsz.
func (r *Runtime) Metrics() *obs.Registry { return r.reg }

// Tracer exposes the lifecycle tracer, nil when tracing is disabled.
func (r *Runtime) Tracer() *obs.Tracer { return r.tracer }

// OutboxDepths reports the deliveries queued per remote machine's
// sender (nil on an all-local engine); httpapi serves it in /status.
func (r *Runtime) OutboxDepths() map[string]int { return r.out.OutboxDepths() }
