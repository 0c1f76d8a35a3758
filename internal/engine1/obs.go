package engine1

import (
	"muppet/internal/obs"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// registerObs wires every subsystem this engine owns into its metrics
// registry: engine counters, per-worker queue accounting, the
// disparate per-worker slate caches and their group-commit flushing,
// the durable kvstore and its simulated devices, the cluster
// transport, the recovery manager, and (when enabled) the lifecycle
// tracer. Collectors are closures over the subsystems' existing
// snapshots, so scrapes read live counters and the hot path pays
// nothing.
func (e *Engine) registerObs() {
	obs.RegisterEngineStats(e.reg, e.Stats)
	obs.RegisterLatency(e.reg, e.counters)
	obs.RegisterTracker(e.reg, e.tracker)
	obs.RegisterLostLog(e.reg, e.lost)
	obs.RegisterQueryStats(e.reg, e.queries)
	obs.RegisterQueueStats(e.reg, e.aggregateQueueStats, e.LargestQueues)
	obs.RegisterCacheStats(e.reg, e.SlateCacheStats)
	obs.RegisterFlushStats(e.reg, e.FlushStats)
	// 1.0 keeps one private cache per worker; each registers its flush
	// histograms and WAL counters under its worker ID so per-worker
	// flush behavior stays visible.
	for id, w := range e.workers {
		if s, ok := w.cache.(*slate.Sharded); ok {
			obs.RegisterShardedStore(e.reg, id, s)
		}
	}
	obs.RegisterCluster(e.reg, e.clu)
	obs.RegisterOutbox(e.reg, e.out)
	if e.cfg.Store != nil {
		obs.RegisterKVStore(e.reg, e.cfg.Store)
	}
	e.rec.RegisterObs(e.reg)
	if e.tracer != nil {
		e.reg.Register(e.tracer)
	}
}

// aggregateQueueStats folds every worker queue's lifetime counters
// (including queues retired by crash/revive cycles) into one
// engine-wide view.
func (e *Engine) aggregateQueueStats() queue.Stats {
	var total queue.Stats
	for _, w := range e.workers {
		total.Add(w.qstats())
	}
	return total
}

// Metrics exposes the engine's observability registry; httpapi serves
// it as /metrics and /statsz.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

// Tracer exposes the lifecycle tracer, nil when tracing is disabled.
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// OutboxDepths reports the deliveries queued per remote machine's
// sender (nil on an all-local engine); httpapi serves it in /status.
func (e *Engine) OutboxDepths() map[string]int { return e.out.OutboxDepths() }

// SlateCacheStats aggregates slate-cache statistics across every
// worker cache, under the name shared with the 2.0 engine (whose
// per-updater breakdown is CacheStats).
func (e *Engine) SlateCacheStats() slate.CacheStats {
	var total slate.CacheStats
	for _, w := range e.workers {
		s := w.cache.Stats()
		total.Hits += s.Hits
		total.Misses += s.Misses
		total.StoreLoads += s.StoreLoads
		total.StoreSaves += s.StoreSaves
		total.Evictions += s.Evictions
		total.DirtyLost += s.DirtyLost
		total.DecodeErrors += s.DecodeErrors
		total.EncodeErrors += s.EncodeErrors
		total.Size += s.Size
	}
	return total
}
