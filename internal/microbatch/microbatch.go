// Package microbatch implements the comparison point Sections 2 and 6
// of the paper argue against: an incremental, MapReduce-Online-style
// engine that buffers the stream into batches and runs a
// map → shuffle → reduce pass per batch, carrying reducer state across
// batches ("runs reduce periodically, as a minimum interval of time
// passes or a batch of new data arrives").
//
// The point of the baseline is latency shape, not fidelity to any one
// system: an event's result is unavailable until its batch closes and
// is reduced, so per-event result latency grows with the batch
// interval. Experiment E16 contrasts this against MapUpdate's
// per-event processing.
package microbatch

import (
	"sort"
	"time"

	"muppet/internal/event"
	"muppet/internal/metrics"
)

// KV is one intermediate key-value pair emitted by the map phase.
type KV struct {
	Key   string
	Value []byte
}

// MapFn maps one input event to zero or more intermediate pairs.
type MapFn func(e event.Event) []KV

// ReduceFn folds a key's batch of values into its carried state and
// returns the new state. prev is nil for a key's first batch. This is
// the incremental-MapReduce adaptation: classic MapReduce would
// rescan everything, which is impossible on a stream (Section 2).
type ReduceFn func(key string, values [][]byte, prev []byte) []byte

// Config tunes the engine.
type Config struct {
	// BatchInterval is the stream-time width of each batch; results
	// for an event materialize only when its batch closes.
	BatchInterval time.Duration
	// Map and Reduce are the job's phases.
	Map    MapFn
	Reduce ReduceFn
}

// Stats reports a run's accounting.
type Stats struct {
	Events      uint64
	Batches     uint64
	MapCalls    uint64
	ReduceCalls uint64
}

// Engine is a single-process micro-batch runner.
type Engine struct {
	cfg     Config
	state   map[string][]byte
	stats   Stats
	latency *metrics.Histogram[time.Duration]
}

// New returns an engine with the given configuration. BatchInterval
// defaults to one second.
func New(cfg Config) *Engine {
	if cfg.BatchInterval <= 0 {
		cfg.BatchInterval = time.Second
	}
	return &Engine{
		cfg:     cfg,
		state:   make(map[string][]byte),
		latency: metrics.NewHistogram[time.Duration](0),
	}
}

// Run processes the whole input, splitting it into stream-time batches
// and reducing each. Events need not arrive sorted; the engine sorts,
// as a batch system is entitled to.
func (e *Engine) Run(events []event.Event) {
	if len(events) == 0 {
		return
	}
	sorted := make([]event.Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Less(sorted[j]) })

	interval := event.Timestamp(e.cfg.BatchInterval / time.Microsecond)
	batchStart := sorted[0].TS
	var batch []event.Event
	flush := func(closeTS event.Timestamp) {
		if len(batch) == 0 {
			return
		}
		e.runBatch(batch)
		for _, ev := range batch {
			// An event's result exists only once its batch closes: the
			// result latency is the stream time from the event to the
			// batch boundary.
			e.latency.Observe(time.Duration(closeTS-ev.TS) * time.Microsecond)
		}
		batch = batch[:0]
	}
	for _, ev := range sorted {
		for ev.TS >= batchStart+interval {
			flush(batchStart + interval)
			batchStart += interval
		}
		batch = append(batch, ev)
		e.stats.Events++
	}
	flush(batchStart + interval)
}

func (e *Engine) runBatch(batch []event.Event) {
	e.stats.Batches++
	groups := make(map[string][][]byte)
	for _, ev := range batch {
		e.stats.MapCalls++
		for _, kv := range e.cfg.Map(ev) {
			groups[kv.Key] = append(groups[kv.Key], kv.Value)
		}
	}
	// Deterministic reduce order.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		e.stats.ReduceCalls++
		e.state[k] = e.cfg.Reduce(k, groups[k], e.state[k])
	}
}

// Result returns the carried state for a key, or nil.
func (e *Engine) Result(key string) []byte { return e.state[key] }

// Stats returns the run accounting.
func (e *Engine) Stats() Stats { return e.stats }

// Latency is the histogram of per-event result latencies in stream
// time.
func (e *Engine) Latency() *metrics.Histogram[time.Duration] { return e.latency }
