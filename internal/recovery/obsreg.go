package recovery

import "muppet/internal/obs"

// RegisterObs registers the manager's lifetime counters and latency
// histograms into the observability registry. The collectors read the
// same atomics Status() reports, without building the per-machine
// status list on every scrape.
func (m *Manager) RegisterObs(r *obs.Registry) {
	r.Counter("muppet_recovery_send_failures_total",
		"Failed sends observed by the failure detector.", nil, m.det.Observed)
	r.Counter("muppet_recovery_transient_failures_total",
		"Exhausted-retry (transient) send failures observed by the detector.", nil, m.det.TransientObserved)
	r.Counter("muppet_recovery_suspicion_escalations_total",
		"Suspicion confirmations escalated to machine-down reports.", nil, m.det.Escalated)
	r.Gauge("muppet_recovery_suspected_machines",
		"Machines currently under transient-failure suspicion.", nil,
		func() float64 {
			return float64(len(m.det.Suspects()))
		})
	r.Counter("muppet_recovery_failovers_total",
		"Master-coordinated failovers completed.", nil, m.failovers.Load)
	r.Counter("muppet_recovery_rejoins_total",
		"Machine rejoins completed.", nil, m.rejoins.Load)
	r.Counter("muppet_recovery_queued_lost_total",
		"Queued events lost with crashed machines.", nil, m.queuedLost.Load)
	r.Counter("muppet_recovery_dirty_slates_lost_total",
		"Dirty slates lost with crashed caches.", nil, m.dirtyLost.Load)
	r.Counter("muppet_recovery_redelivered_total",
		"Unacknowledged events redelivered to new ring owners.", nil, m.redelivered.Load)
	r.Counter("muppet_recovery_slates_warmed_total",
		"Slates pre-loaded into rejoined machines' caches.", nil, m.warmed.Load)
	r.DurationSummary("muppet_recovery_failover_seconds",
		"Wall-clock latency of completed failovers.", nil, m.failoverLatency)
	r.DurationSummary("muppet_recovery_rejoin_seconds",
		"Wall-clock latency of completed rejoins.", nil, m.rejoinLatency)
}
