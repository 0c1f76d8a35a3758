package engine2

import (
	"muppet/internal/obs"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// registerObs wires every subsystem this engine owns into its metrics
// registry: engine counters, queue accounting, the central slate
// caches and their group-commit flushing, the durable kvstore and its
// simulated devices, the cluster transport, the recovery manager, and
// (when enabled) the lifecycle tracer. Collectors are closures over
// the subsystems' existing snapshots, so scrapes read live counters
// and the hot path pays nothing.
func (e *Engine) registerObs() {
	obs.RegisterEngineStats(e.reg, e.Stats)
	obs.RegisterLatency(e.reg, e.counters)
	obs.RegisterTracker(e.reg, e.tracker)
	obs.RegisterLostLog(e.reg, e.lost)
	obs.RegisterQueryStats(e.reg, e.queries)
	obs.RegisterQueueStats(e.reg, e.aggregateQueueStats, e.LargestQueues)
	obs.RegisterCacheStats(e.reg, e.CacheStats)
	obs.RegisterFlushStats(e.reg, e.FlushStats)
	for name, m := range e.machines {
		if s, ok := m.cache.(*slate.Sharded); ok {
			obs.RegisterShardedStore(e.reg, name, s)
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

// aggregateQueueStats folds every thread queue's lifetime counters
// (including retired queues) into one engine-wide view.
func (e *Engine) aggregateQueueStats() queue.Stats {
	var total queue.Stats
	for _, m := range e.machines {
		for _, th := range m.threads {
			total.Add(th.stats())
		}
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

// SlateCacheStats aggregates central-cache statistics across machines
// under the name shared with the 1.0 engine (whose CacheStats takes an
// updater argument).
func (e *Engine) SlateCacheStats() slate.CacheStats { return e.CacheStats() }
