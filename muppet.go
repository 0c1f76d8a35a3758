// Package muppet is a Go implementation of MapUpdate — the
// MapReduce-style programming model for fast data introduced in
// "Muppet: MapReduce-Style Processing of Fast Data" (Lam et al.,
// PVLDB 5(12), 2012) — together with both Muppet execution engines the
// paper describes.
//
// A MapUpdate application is a workflow of map and update functions
// connected by streams. Map functions are memoryless: they consume
// events and emit events. Update functions keep per-key memory called
// slates — live, continuously updated data structures that summarize
// every event with that key the updater has seen — persisted in a
// replicated key-value store and queryable over HTTP while the
// application runs.
//
// Quick start — typed slates in, batched ingress, subscribable egress:
//
//	// A typed update function: the slate is a live Go value, decoded
//	// once when it enters the cache and re-encoded once per flush —
//	// mutate it in place, no per-event (un)marshalling.
//	counter := muppet.Update[int]("U1", func(emit muppet.Emitter, in muppet.Event, n *int) {
//		*n++
//	})
//	app := muppet.NewApp("counts").Input("S1")
//	app.AddUpdate(counter, []string{"S1"}, nil, 0)
//	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 4})
//
//	// Struct slates use the default JSONCodec; bring your own
//	// encoding with UpdateWith (RawCodec keeps plain bytes):
//	type Profile struct{ Seen int; Last string }
//	prof := muppet.Update[Profile]("U_prof", func(emit muppet.Emitter, in muppet.Event, p *Profile) {
//		p.Seen++; p.Last = string(in.Value)
//	})
//
//	// Ingress: feed events in batches; accepted/err report overflow
//	// and backpressure instead of silently dropping.
//	accepted, err := eng.IngestBatch(batch)
//	// ...or pump a whole Source through (rate-limited, batching):
//	stats, err := muppet.Pump(ctx, eng, muppet.RateLimit(src, 100_000), 256)
//
//	// Egress: subscribe to a declared output stream...
//	sub := eng.Subscribe("S2", 0)
//	for ev := range sub.C() { ... }
//	// ...then query live slates: eng.Drain(); eng.Slate("U1", key)
//	// (reads render through the codec — JSON for JSONCodec slates)
//
// The classic byte-slate API (UpdateFunc + Emitter.ReplaceSlate)
// remains fully supported with unchanged, byte-for-byte semantics.
//
// Two engines are provided. Muppet 1.0 (EngineV1) runs each function
// on dedicated conductor/task-processor worker pairs with private
// slate caches; Muppet 2.0 (EngineV2, the default) runs a worker-
// thread pool per machine with a central slate cache and dual-queue
// hotspot relief. Both detect machine failures on first failed send
// and reroute keys via a shared consistent hash ring.
package muppet

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/engine1"
	"muppet/internal/engine2"
	"muppet/internal/event"
	"muppet/internal/httpapi"
	"muppet/internal/ingress"
	"muppet/internal/kvstore"
	"muppet/internal/metrics"
	"muppet/internal/obs"
	"muppet/internal/query"
	"muppet/internal/queue"
	"muppet/internal/recovery"
	"muppet/internal/runtime"
	"muppet/internal/slate"
	"muppet/internal/storage"
)

// Event is the unit of data flowing through an application: the tuple
// <sid, ts, k, v> of Section 3 of the paper.
type Event = event.Event

// Timestamp is a global logical timestamp in microseconds.
type Timestamp = event.Timestamp

// Emitter is the handle through which running functions publish events
// and replace slates (the paper's PerformerUtilities).
type Emitter = core.Emitter

// Mapper is a map function: map(event) -> event*.
type Mapper = core.Mapper

// Updater is an update function: update(event, slate) -> event*.
type Updater = core.Updater

// MapFunc adapts a function literal to Mapper.
type MapFunc = core.MapFunc

// UpdateFunc adapts a function literal to Updater — the classic
// byte-slate API, unchanged: the function receives the slate bytes
// (nil when missing) and replaces them with Emitter.ReplaceSlate.
type UpdateFunc = core.UpdateFunc

// Codec translates a slate between its at-rest byte encoding and the
// application's slate type S. JSONCodec is the default; RawCodec keeps
// the bytes themselves.
type Codec[S any] = core.Codec[S]

// JSONCodec is the default slate codec: slates at rest are JSON, the
// encoding the paper's example applications already used by hand.
type JSONCodec[S any] = core.JSONCodec[S]

// RawCodec is the compatibility codec for UpdateWith: the slate
// "object" is the raw byte slice itself, so an application keeps full
// control of its encoding while gaining the mutate-in-place contract.
type RawCodec = core.RawCodec

// ValidationError is the dedicated error type NewEngine returns when
// the application fails App.Validate: it carries every problem found
// (unknown streams, publishes into external inputs, duplicate or nil
// function registrations, ...), not just the first.
type ValidationError = core.ValidationError

// Update builds a typed update function with the default JSONCodec.
// The function receives the decoded slate object s — never nil,
// zero-valued when no slate exists for the key yet — and mutates it in
// place; after the call the object is the slate. The engines keep the
// decoded object in the slate cache: it is decoded once when it enters
// the cache and re-encoded once per flush batch or external read,
// eliminating the per-event unmarshal/marshal the byte-slate API
// forced on every JSON-slate application. Typed updaters must not call
// Emitter.ReplaceSlate (the mutated object is the slate; the call is
// ignored).
func Update[S any](name string, fn func(emit Emitter, in Event, s *S)) Updater {
	return core.Update[S](name, fn)
}

// UpdateWith builds a typed update function with an explicit codec,
// e.g. UpdateWith("U", muppet.RawCodec{}, fn) for byte slates.
func UpdateWith[S any](name string, codec Codec[S], fn func(emit Emitter, in Event, s *S)) Updater {
	return core.UpdateWith[S](name, codec, fn)
}

// Payload returns in.Value JSON-decoded into a *T, at most once per
// process; the object is shared and must not be modified (core.Payload).
func Payload[T any](emit Emitter, in Event) (*T, error) {
	return core.Payload[T](emit, in)
}

// App is a MapUpdate application: a workflow graph of map and update
// functions connected by streams.
type App = core.App

// NewApp returns an empty application with the given name.
func NewApp(name string) *App { return core.NewApp(name) }

// Stats aggregates an engine's lifetime counters.
type Stats = engine.Stats

// Subscription is a live, bounded-buffer feed of one declared output
// stream: events arrive on C() in publication order, a slow
// subscriber's overflow is dropped and counted (Dropped) rather than
// blocking the engine, and Cancel detaches it.
type Subscription = engine.Subscription

// OutputHandler is a pluggable egress sink: it consumes output-stream
// events synchronously as they are recorded (AttachOutput).
type OutputHandler = engine.OutputHandler

// OutputHandlerFunc adapts a function literal to OutputHandler.
type OutputHandlerFunc = engine.OutputHandlerFunc

// Source is a pull-based, batch-oriented event supplier: Next fills a
// caller buffer and returns io.EOF when exhausted. Build one with
// EventsSource, SourceFunc, RateLimit, or Take, and drive it with
// Pump.
type Source = ingress.Source

// PumpStats summarizes one Pump run: events read, events accepted,
// batches issued, deliveries dropped.
type PumpStats = ingress.PumpStats

// BatchError reports a partially accepted ingest batch, tallying the
// dropped deliveries by the same reasons recorded in LostEvents().
type BatchError = ingress.BatchError

// NotInputError reports an ingest on a stream the application does not
// declare as an external input.
type NotInputError = ingress.NotInputError

// ErrStopped is returned when events are offered to a stopped engine.
var ErrStopped = ingress.ErrStopped

// ErrBackpressure is wrapped by IngestCtx errors when the destination
// queues stayed full until the context expired.
var ErrBackpressure = ingress.ErrBackpressure

// EventsSource returns a Source yielding the given events in order.
func EventsSource(evs []Event) Source { return ingress.FromSlice(evs) }

// SourceFunc returns a Source that calls fn per event until fn reports
// false.
func SourceFunc(fn func() (Event, bool)) Source { return ingress.FromFunc(fn) }

// RateLimit wraps a Source to deliver at most perSec events per
// second, pacing per batch rather than per event. perSec <= 0 disables
// pacing.
func RateLimit(src Source, perSec float64) Source { return ingress.RateLimit(src, perSec) }

// Take caps a Source at n events.
func Take(src Source, n int) Source { return ingress.Take(src, n) }

// Pump drains a Source into an engine in batches of batchSize (default
// 256) — the canonical ingestion loop. Partial batches are accounted
// in the stats and pumping continues; any other error stops the pump.
func Pump(ctx context.Context, eng Engine, src Source, batchSize int) (PumpStats, error) {
	return ingress.Pump(ctx, eng, src, batchSize)
}

// OverflowPolicy selects what a full worker queue does with new events.
type OverflowPolicy = queue.OverflowPolicy

// Overflow policies (Section 4.3 of the paper).
const (
	// DropOverflow drops and logs events offered to a full queue.
	DropOverflow = queue.Drop
	// DivertOverflow redirects them to Config.OverflowStream.
	DivertOverflow = queue.Divert
	// BlockOverflow applies backpressure to sources: Ingest* wait for
	// room, on whichever node owns the key. A worker's own emits never
	// wait on a worker queue, local or remote (that is the
	// workflow-internal throttling deadlock of Section 4.3); finding one
	// full they are dropped and logged, as under DropOverflow.
	BlockOverflow = queue.Block
)

// FlushPolicy selects when dirty slates reach the durable store.
type FlushPolicy = slate.FlushPolicy

// Flush policies (Section 4.2: "ranging from immediate write-through
// to only when evicted from cache").
const (
	// WriteThrough persists every slate update immediately.
	WriteThrough = slate.WriteThrough
	// FlushInterval persists dirty slates periodically in the
	// background.
	FlushInterval = slate.Interval
	// FlushOnEvict persists dirty slates only on cache eviction.
	FlushOnEvict = slate.OnEvict
)

// Consistency is the quorum level for slate reads/writes against the
// store.
type Consistency = kvstore.Consistency

// Consistency levels (Section 4.2).
const (
	// One succeeds after a single replica acknowledges.
	One = kvstore.One
	// Quorum succeeds after a majority of replicas acknowledge.
	Quorum = kvstore.Quorum
	// All succeeds only after every replica acknowledges.
	All = kvstore.All
)

// EngineVersion selects the execution engine.
type EngineVersion int

const (
	// EngineV2 is Muppet 2.0: a worker-thread pool per machine with a
	// central slate cache and dual-queue dispatch (Section 4.5). The
	// default.
	EngineV2 EngineVersion = iota
	// EngineV1 is Muppet 1.0: conductor/task-processor worker pairs
	// with per-worker slate caches (Sections 4.1-4.4).
	EngineV1
)

// StoreConfig describes the durable key-value cluster slates persist
// to (the paper's Cassandra cluster, Section 4.2).
type StoreConfig struct {
	// Nodes is the number of store nodes (default 3).
	Nodes int
	// ReplicationFactor is the replicas per slate row (default 3).
	ReplicationFactor int
	// UseSSD selects the simulated device profile: true for the SSD
	// cost model the paper deploys, false for a spinning disk.
	UseSSD bool
	// NoDevice disables device cost simulation entirely.
	NoDevice bool
	// MemtableFlushBytes and CompactionThreshold tune each node's LSM
	// behavior; zero means defaults.
	MemtableFlushBytes  int64
	CompactionThreshold int
	// NetworkRTT and RTTJitter shape simulated replica latency.
	NetworkRTT time.Duration
	RTTJitter  time.Duration
	// Seed makes jitter deterministic.
	Seed int64
	// Dir, when non-empty, makes every store node durable: node-NN keeps
	// its rows under Dir/node-NN via the internal/lsm engine, fsync'd
	// before acknowledgement, and a store reopened on the same Dir
	// recovers every acknowledged slate. Empty keeps the historical
	// in-memory store.
	Dir string
}

// Store is a handle to a running slate store cluster.
type Store struct {
	cluster *kvstore.Cluster
}

// NewStore builds a replicated slate store. It panics if cfg.Dir is
// set and durable storage fails to open; use OpenStore when the caller
// can handle the error.
func NewStore(cfg StoreConfig) *Store {
	s, err := OpenStore(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// OpenStore builds a replicated slate store, opening (and recovering)
// per-node durable storage under cfg.Dir when it is set.
func OpenStore(cfg StoreConfig) (*Store, error) {
	kcfg := kvstore.ClusterConfig{
		Nodes:             cfg.Nodes,
		ReplicationFactor: cfg.ReplicationFactor,
		NetworkRTT:        cfg.NetworkRTT,
		RTTJitter:         cfg.RTTJitter,
		Seed:              cfg.Seed,
		Dir:               cfg.Dir,
		Node: kvstore.NodeConfig{
			MemtableFlushBytes:  cfg.MemtableFlushBytes,
			CompactionThreshold: cfg.CompactionThreshold,
		},
	}
	if !cfg.NoDevice {
		p := storage.HDD()
		if cfg.UseSSD {
			p = storage.SSD()
		}
		kcfg.DeviceProfile = &p
	}
	kc, err := kvstore.OpenCluster(kcfg)
	if err != nil {
		return nil, err
	}
	return &Store{cluster: kc}, nil
}

// Cluster exposes the underlying store cluster for advanced use
// (failure injection, scans, statistics).
func (s *Store) Cluster() *kvstore.Cluster { return s.cluster }

// Close releases the store's durable node storage (no-op for an
// in-memory store). Call it after the engine using the store has
// stopped.
func (s *Store) Close() error { return s.cluster.Close() }

// Config tunes an engine. The zero value is usable: one machine,
// Muppet 2.0, no persistence.
type Config struct {
	// Engine selects Muppet 1.0 or 2.0.
	Engine EngineVersion
	// Machines is the number of simulated machines in the cluster.
	Machines int
	// WorkersPerFunction is the 1.0 worker count per map/update
	// function.
	WorkersPerFunction int
	// ThreadsPerMachine is the 2.0 worker-thread pool size.
	ThreadsPerMachine int
	// QueueCapacity bounds each worker queue.
	QueueCapacity int
	// QueuePolicy is the overflow behavior for internal event passing.
	QueuePolicy OverflowPolicy
	// OverflowStream receives diverted events under DivertOverflow.
	OverflowStream string
	// CacheCapacity is the slate-cache capacity: per worker under 1.0
	// (its disparate caches), per machine under 2.0 (its central
	// cache).
	CacheCapacity int
	// FlushBatch bounds the slates per group-commit multi-put when
	// dirty slates are flushed to the store (default 256).
	FlushBatch int
	// FlushPolicy controls slate persistence.
	FlushPolicy FlushPolicy
	// FlushEvery drives periodic flushing under FlushInterval.
	FlushEvery time.Duration
	// Store is the durable slate store; nil disables persistence.
	Store *Store
	// StoreLevel is the consistency level for slate I/O.
	StoreLevel Consistency
	// SourceThrottle slows Ingest instead of dropping when queues fill
	// (safe only at external inputs, Section 5).
	SourceThrottle bool
	// DisableDualQueue restores single-queue dispatch under 2.0 (the
	// E6 ablation). With a single queue each <function, key>'s events
	// are applied in the order they arrived; the dual-queue spill gives
	// that order up for hotspot relief.
	DisableDualQueue bool
	// Recovery tunes the unified recovery subsystem shared by both
	// engines: its failure-suspicion thresholds. Detect-on-send,
	// slate-cache warm-up on rejoin, and a crash that waits out the
	// group commit in flight always run.
	Recovery RecoveryConfig
	// Network, when non-nil, switches the engine into node mode: this
	// process hosts one machine of a real networked cluster and reaches
	// the others over TCP. Machines is then ignored — the cluster size
	// is the member list Network implies — and every node of the
	// cluster must be configured with the same member list. Nil keeps
	// the single-process simulation.
	Network *NetworkConfig
	// Observability tunes the sampled event-lifecycle tracer feeding
	// the muppet_trace_* latency histograms. The zero value disables
	// tracing (zero hot-path cost); the metrics registry behind
	// /metrics and /statsz is always on — its collectors only run at
	// scrape time.
	Observability ObservabilityConfig
}

// ObservabilityConfig is the event-lifecycle tracing knob: Tracing
// enables sampled per-event spans, SampleRate traces one in N
// deliveries (default 256).
type ObservabilityConfig = obs.TracerConfig

// MetricsRegistry is an engine's observability registry: every
// subsystem's counters, gauges, and latency summaries, gathered lazily
// at scrape time. Served as /metrics (Prometheus text) and /statsz
// (JSON) by Handler.
type MetricsRegistry = obs.Registry

// NetworkConfig wires one process into a real networked Muppet
// cluster. The member list is Node plus the keys of Peers; it must be
// identical (same names) on every node so the hash rings agree on key
// ownership. Failure semantics are unchanged from the simulation:
// sends to an unreachable node fail at the sender with machine-down,
// which feeds the same detect-on-send recovery path.
type NetworkConfig struct {
	// Node is the machine this process hosts, e.g. "machine-00". It
	// must not appear in Peers.
	Node string
	// Listen is the TCP address peer nodes dial, e.g. "127.0.0.1:7070"
	// or ":0" (ephemeral). Empty disables serving (a send-only node —
	// only useful for tooling).
	Listen string
	// Peers maps every other member machine to its node's listen
	// address.
	Peers map[string]string
	// DialTimeout, IOTimeout, RetryBackoff and MaxBackoff tune the
	// transport's connection handling; zero values pick the defaults
	// (1s, 10s, 50ms, 2s).
	DialTimeout  time.Duration
	IOTimeout    time.Duration
	RetryBackoff time.Duration
	MaxBackoff   time.Duration
	// SendRetries is the total delivery attempts per remote batch,
	// including the first (default 3; 1 disables retry). Only transient
	// faults — dial failures, I/O timeouts, broken connections — are
	// retried; an authoritative machine-down answer fails immediately.
	SendRetries int
	// SendRetryBackoff is the pause before the first retry, doubled per
	// further retry with jitter up to 100ms (default 5ms). Retries are
	// idempotent: the receiver remembers each sender's last 4096 batch
	// IDs and absorbs a batch retried after a lost response.
	SendRetryBackoff time.Duration
	// Chaos, when non-nil, wraps the TCP transport in the seeded
	// fault-injection layer: scripted drops, delays, duplicates, flaky
	// dials, and one-way partitions, deterministic per seed. A testing
	// and soak facility — leave nil in production.
	Chaos *ChaosConfig
}

// ChaosConfig tunes the deterministic network fault injector (see
// cluster.ChaosConfig): per-fault probabilities, a seed making every
// decision reproducible, and scripted one-way partition windows.
type ChaosConfig = cluster.ChaosConfig

// ChaosPartition scripts one one-way partition window: sends to
// Machine fail while the per-destination attempt counter is in
// [From, To).
type ChaosPartition = cluster.Partition

// ChaosStats counts the faults a chaos transport injected.
type ChaosStats = cluster.ChaosStats

// DeliveryStats counts the resilient-delivery layer's work: transient
// faults, retries, exhausted budgets, and dedup-window absorption.
type DeliveryStats = cluster.DeliveryStats

// buildNode binds the TCP transport, builds this node's view of the
// cluster, and starts serving peer traffic into it.
func (n *NetworkConfig) buildNode() (*cluster.Cluster, error) {
	if n.Node == "" {
		return nil, fmt.Errorf("muppet: network config: Node must name the machine this process hosts")
	}
	if _, ok := n.Peers[n.Node]; ok {
		return nil, fmt.Errorf("muppet: network config: local node %s must not be listed in Peers", n.Node)
	}
	names := make([]string, 0, len(n.Peers)+1)
	names = append(names, n.Node)
	for name := range n.Peers {
		names = append(names, name)
	}
	tr, err := cluster.NewTCP(cluster.TCPConfig{
		Listen:       n.Listen,
		Peers:        n.Peers,
		DialTimeout:  n.DialTimeout,
		IOTimeout:    n.IOTimeout,
		RetryBackoff: n.RetryBackoff,
		MaxBackoff:   n.MaxBackoff,
	})
	if err != nil {
		return nil, err
	}
	var wired cluster.Transport = tr
	if n.Chaos != nil {
		wired = cluster.NewChaos(tr, *n.Chaos)
	}
	clu := cluster.New(cluster.Config{
		Names:     names,
		Local:     []string{n.Node},
		Node:      n.Node,
		Transport: wired,
		Retry: cluster.RetryConfig{
			Attempts: n.SendRetries,
			Backoff:  n.SendRetryBackoff,
		},
	})
	tr.Serve(clu)
	return clu, nil
}

// RecoveryConfig holds the recovery subsystem's knobs, the
// failure-suspicion thresholds SuspicionK and SuspicionWindow: a machine
// is reported down after K consecutive exhausted-retry sends within the
// window (defaults 3 / 10s).
type RecoveryConfig = recovery.Config

// RecoveryStatus is the recovery subsystem's operator view: ring
// membership, failover and rejoin counts, loss totals, and the latest
// incident reports. Served over HTTP at GET /recovery.
type RecoveryStatus = recovery.Status

// FailoverReport summarizes one machine failure's recovery.
type FailoverReport = recovery.Report

// RejoinReport summarizes one machine revival.
type RejoinReport = recovery.RejoinReport

// Engine is a running MapUpdate application. Both Muppet engines
// satisfy it.
type Engine interface {
	// Ingest feeds one external input event into the application,
	// fire-and-forget: drops are counted and logged but not reported
	// to the caller. Production sources should prefer IngestBatch or
	// IngestCtx, which return the losses.
	Ingest(Event)
	// IngestBatch feeds a batch of external input events, grouping the
	// deliveries per destination machine so ring sends and queue locks
	// are paid per batch rather than per event. It returns how many
	// events were fully accepted; dropped deliveries are reported via
	// a *BatchError (and recorded in LostEvents with distinct
	// reasons). A non-input stream rejects the whole batch before any
	// side effects.
	IngestBatch(evs []Event) (accepted int, err error)
	// IngestCtx ingests one event with backpressure: while the
	// destination queue is full it retries until ctx is done, then
	// fails with an error wrapping ErrBackpressure.
	IngestCtx(ctx context.Context, ev Event) error
	// Subscribe attaches a live bounded-buffer feed to a declared
	// output stream; buf <= 0 selects the default buffer (256).
	Subscribe(stream string, buf int) *Subscription
	// AttachOutput registers a synchronous handler for a declared
	// output stream's events.
	AttachOutput(stream string, h OutputHandler)
	// Drain blocks until all accepted events are fully processed.
	Drain()
	// Stop drains, halts the engine, flushes dirty slates, and closes
	// every subscription's channel.
	Stop()
	// Slate returns the live slate for <updater, key>, or nil.
	Slate(updater, key string) []byte
	// Slates returns the cached slates of an updater by event key.
	Slates(updater string) map[string][]byte
	// Stats snapshots the engine counters.
	Stats() Stats
	// Counters exposes live counters including the latency histogram.
	Counters() *engine.Counters
	// Cluster exposes the simulated machine cluster for failure
	// injection.
	Cluster() *cluster.Cluster
	// CrashMachine kills a machine, returning how many queued events
	// and dirty slates died with it. A group commit under way when the
	// kill lands is in the store before CrashMachine returns, so the
	// keys' new owners read every slate the machine flushed.
	CrashMachine(machine string) (lostQueued, lostDirtySlates int)
	// RejoinMachine revives a crashed machine: its workers restart, the
	// master broadcasts the rejoin, the ring re-enables it, and its
	// slate cache is warmed from the durable store.
	RejoinMachine(machine string) (RejoinReport, error)
	// RecoveryStatus snapshots the recovery subsystem.
	RecoveryStatus() RecoveryStatus
	// LargestQueues reports the deepest queue per machine.
	LargestQueues() map[string]int
	// Updaters lists the application's update functions.
	Updaters() []string
	// FlushSlates forces dirty cached slates to the durable store.
	FlushSlates()
	// StoredSlates bulk-reads an updater's slates from the durable
	// store (nil without persistence); see Section 5 "Bulk Reading of
	// Slates".
	StoredSlates(updater string) map[string][]byte
	// LostEvents exposes the log of abandoned deliveries ("logged as
	// lost", Section 4.3) for later processing and debugging.
	LostEvents() *engine.LostLog
	// Metrics exposes the engine's observability registry (served as
	// /metrics and /statsz by Handler).
	Metrics() *MetricsRegistry
	// SlateCacheStats aggregates the engine's slate-cache counters.
	SlateCacheStats() slate.CacheStats
	// Query answers one relational query (scan, filter, project,
	// aggregate) over an updater's live slates, cluster-wide: the whole
	// pipeline is pushed down to each owning node and only the reduced
	// partials cross the wire. Served over HTTP as POST /query.
	Query(spec QuerySpec) (*QueryResult, error)
	// QueryWatch starts a continuous query: the spec is re-evaluated on
	// flush-epoch cadence (or spec.EveryMS) and each changed answer is
	// published to the subscription as a marshaled QueryResult. The stop
	// function ends the watch; call it exactly once.
	QueryWatch(spec QuerySpec, buf int) (*Subscription, func(), error)
}

// QuerySpec describes one relational query over an updater's live
// slates: an ordered key scan (prefix or [start, end) range) piped
// through predicate filters (Where), field projection (Fields), and an
// optional grouped aggregation (count/sum/min/max/topk). See the
// internal/query package documentation for the operator contracts.
type QuerySpec = query.Spec

// QueryPred is one field predicate of a QuerySpec ({field, op, value}).
type QueryPred = query.Pred

// QueryResult is a merged cluster-wide query answer: rows for scans,
// groups for aggregates, plus the execution stats.
type QueryResult = query.Result

// QueryRow is one projected row of a scan result.
type QueryRow = query.Row

// QueryGroup is one aggregation group of an aggregate result.
type QueryGroup = query.Group

// QueryStats accounts one query's execution: rows and bytes scanned,
// rows returned, machines scattered to, and response bytes crossing
// the wire (the pushdown saving shows as WireBytes far below
// BytesScanned).
type QueryStats = query.ExecStats

// LostLog is the bounded log of abandoned deliveries.
type LostLog = engine.LostLog

// LostEvent is one abandoned delivery with its loss reason.
type LostEvent = engine.LostEvent

// NewEngine builds and starts an engine for a validated application.
// With Config.Network set, the engine becomes one node of a real
// networked cluster (see NetworkConfig).
func NewEngine(app *App, cfg Config) (Engine, error) {
	rc := runtime.Config{
		Machines:           cfg.Machines,
		WorkersPerFunction: cfg.WorkersPerFunction,
		ThreadsPerMachine:  cfg.ThreadsPerMachine,
		QueueCapacity:      cfg.QueueCapacity,
		QueuePolicy:        cfg.QueuePolicy,
		OverflowStream:     cfg.OverflowStream,
		CacheCapacity:      cfg.CacheCapacity,
		FlushBatch:         cfg.FlushBatch,
		FlushPolicy:        cfg.FlushPolicy,
		FlushInterval:      cfg.FlushEvery,
		StoreLevel:         cfg.StoreLevel,
		SourceThrottle:     cfg.SourceThrottle,
		DisableDualQueue:   cfg.DisableDualQueue,
		Recovery:           cfg.Recovery,
		Observability:      cfg.Observability,
	}
	if cfg.Store != nil {
		rc.Store = cfg.Store.cluster
	}
	if cfg.Network != nil {
		var err error
		if rc.Cluster, err = cfg.Network.buildNode(); err != nil {
			return nil, err
		}
	}
	var e Engine
	var err error
	switch cfg.Engine {
	case EngineV1:
		e, err = engine1.New(app, rc)
	case EngineV2:
		e, err = engine2.New(app, rc)
	default:
		err = fmt.Errorf("muppet: unknown engine version %d", cfg.Engine)
	}
	if err != nil {
		// The engine never took ownership of the cluster node.
		if rc.Cluster != nil {
			rc.Cluster.Close()
		}
		return nil, err
	}
	return e, nil
}

// Handler returns the HTTP handler serving live slate fetches
// (GET /slate/{updater}/{key}), engine status (GET /status), the
// service of Section 4.4 of the paper, batched event ingestion
// (POST /ingest, a JSON array of {stream, ts, key, value}), and
// relational queries over live slates (POST /query, a JSON QuerySpec;
// answers stream as NDJSON, continuously with "watch": true).
func Handler(e Engine) http.Handler { return httpapi.Handler(e) }

// LatencySummary renders an engine's end-to-end latency histogram
// (event ingress to slate update) on one line.
func LatencySummary(e Engine) string { return e.Counters().Latency.Summary() }

// Histogram is re-exported for benchmark harnesses.
type Histogram = metrics.Histogram
