package engine1

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/hashring"
	"muppet/internal/ingress"
	"muppet/internal/kvstore"
	"muppet/internal/obs"
	"muppet/internal/query"
	"muppet/internal/queue"
	"muppet/internal/recovery"
	"muppet/internal/slate"
	"muppet/internal/wal"
)

// Config tunes the Muppet 1.0 engine.
type Config struct {
	// Machines is the number of simulated machines.
	Machines int
	// WorkersPerFunction is the number of workers started for each map
	// and update function, spread across machines. In 1.0 the worker
	// count is "set based on the nature of the application, not based
	// on the number of cores" (Section 4.5).
	WorkersPerFunction int
	// QueueCapacity bounds each worker's incoming-event queue.
	QueueCapacity int
	// QueuePolicy is the overflow behavior for internal event passing.
	QueuePolicy queue.OverflowPolicy
	// OverflowStream receives diverted events under the Divert policy.
	OverflowStream string
	// SlateCachePerWorker is each worker's private slate-cache capacity
	// (slates). 1.0 keeps disparate caches, one per worker.
	SlateCachePerWorker int
	// FlushPolicy controls when dirty slates reach the key-value store.
	FlushPolicy slate.FlushPolicy
	// FlushInterval drives the periodic flush under slate.Interval.
	FlushInterval time.Duration
	// Store is the durable key-value cluster; nil disables persistence.
	Store *kvstore.Cluster
	// StoreLevel is the consistency level for slate I/O.
	StoreLevel kvstore.Consistency
	// SourceThrottle makes Ingest wait-and-retry when the destination
	// queue is full instead of applying the overflow policy — the
	// paper's source throttling, safe only at external inputs.
	SourceThrottle bool
	// SendLatency is the simulated per-hop network latency.
	SendLatency time.Duration
	// SlateShards is the number of stripes in each worker's private
	// slate store (default 4 — 1.0 workers are single-threaded, so a
	// few stripes suffice; the shared value is the group-commit flush
	// path, not lock spreading).
	SlateShards int
	// FlushBatch bounds the records per group-commit multi-put when a
	// worker flushes dirty slates (default 256).
	FlushBatch int
	// OutputCapacity bounds the events retained per declared output
	// stream (a ring keeping the newest; overwrites are counted in
	// Stats.OutputDropped). Zero or negative retains everything, the
	// pre-redesign behavior.
	OutputCapacity int
	// Recovery tunes the shared failure-recovery subsystem (detector,
	// WAL replay on failover, cache warm-up on rejoin). The zero value
	// enables everything.
	Recovery recovery.Config
	// Cluster, when non-nil, is an externally wired cluster node (node
	// mode): the engine hosts conductor/task-processor pairs only for
	// workers assigned to the cluster's local machines and reaches the
	// rest through its transport. Nil builds the single-process
	// simulation from Machines/SendLatency. The engine owns the
	// cluster's lifecycle either way: Stop closes it.
	Cluster *cluster.Cluster
	// Observability tunes the sampled event-lifecycle tracer. The zero
	// value disables tracing entirely (nil tracer, zero hot-path cost);
	// the metrics registry is always on — collectors are lazy.
	Observability obs.TracerConfig
}

func (c *Config) fill() {
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.WorkersPerFunction <= 0 {
		c.WorkersPerFunction = c.Machines
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 1024
	}
	if c.SlateCachePerWorker <= 0 {
		c.SlateCachePerWorker = 10_000
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.SlateShards <= 0 {
		c.SlateShards = 4
	}
}

type taskRequest struct {
	ev       event.Event
	slateIn  []byte
	slateObj any // decoded slate object of a typed updater (never nil when set)
	isUpdate bool
}

// taskResponse carries one invocation's results back to the conductor.
// outputs is the task processor's REUSED emitter slice: the strict
// request/response alternation of the worker pair guarantees the
// conductor is done routing before the processor's next invocation
// resets it. arena is fresh per invocation (the derived events retain
// slices of it), holding every published value in one allocation.
type taskResponse struct {
	outputs  []emitted
	arena    []byte
	newSlate []byte
	replaced bool
	err      error
}

// emitted is one published output: its stream and key, and the bounds
// of its value in the invocation's arena.
type emitted struct {
	stream, key string
	off, end    int
}

// worker is one conductor/task-processor pair bound to a single
// function. Its queue lives in a queue.Slot: the queue (and channel
// pair) is replaced when the worker's machine is revived after a
// crash — the failover drain closed the old queue and its loops
// exited — with retired queues' stats folded in.
type worker struct {
	id      string
	machine string
	fn      *core.FunctionSpec
	q       queue.Slot[event.Event]
	cache   slate.SlateStore
	// loops counts the pair's running goroutines, so an operator kill
	// can wait out the invocation in progress (AwaitWorkers).
	loops sync.WaitGroup
}

func (w *worker) queue() *queue.Queue[event.Event] { return w.q.Queue() }
func (w *worker) qstats() queue.Stats              { return w.q.Stats() }

// Engine is the Muppet 1.0 runtime for one application.
type Engine struct {
	app *core.App
	cfg Config
	clu *cluster.Cluster

	rings map[string]*hashring.Ring // function -> ring over its worker IDs
	// workers holds the conductor/task-processor pairs this node runs —
	// only workers assigned to locally hosted machines. workerMachine
	// and workerFn cover EVERY worker of the cluster (the assignment is
	// deterministic, so all nodes agree); ring updates and routing must
	// consult them, never workers, for a worker another node hosts.
	workers       map[string]*worker
	workerMachine map[string]string
	workerFn      map[string]string

	rec *recovery.Manager
	ing *ingress.Driver
	// out carries worker emits and fire-and-forget ingests to their
	// owners: synchronously on this node, through a per-destination
	// outbox to machines other nodes host.
	out      *engine.Courier
	reg      *obs.Registry
	tracer   *obs.Tracer
	counters *engine.Counters
	tracker  *engine.Tracker
	sink     *engine.Sink
	lost     *engine.LostLog
	queries  *query.Counters
	seq      atomic.Uint64
	watchSeq atomic.Uint64
	stopped  atomic.Bool
	flushers chan struct{}
	wg       sync.WaitGroup
	// stopMu serializes Stop against RestartWorkers so a rejoin racing
	// a shutdown can never wg.Add fresh worker loops while wg.Wait is
	// in progress.
	stopMu sync.Mutex
}

// New builds and starts a Muppet 1.0 engine for a validated app.
func New(app *core.App, cfg Config) (*Engine, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	cfg.fill()
	clu := cfg.Cluster
	if clu == nil {
		clu = cluster.New(cluster.Config{Machines: cfg.Machines, SendLatency: cfg.SendLatency})
	}
	e := &Engine{
		app:           app,
		cfg:           cfg,
		clu:           clu,
		rings:         make(map[string]*hashring.Ring),
		workers:       make(map[string]*worker),
		workerMachine: make(map[string]string),
		workerFn:      make(map[string]string),
		reg:           obs.NewRegistry(),
		tracer:        obs.NewTracer(app.Name(), cfg.Observability),
		counters:      engine.NewCounters(),
		tracker:       engine.NewTracker(),
		sink:          engine.NewSink(cfg.OutputCapacity),
		lost:          engine.NewLostLog(0),
		queries:       query.NewCounters(),
		flushers:      make(chan struct{}),
	}
	// Remote-origin deliveries are charged to this node's in-flight
	// tracker when they land (and credited back if bounced), so Drain
	// covers events handed off by peer nodes.
	e.clu.OnRemoteInflight(func(delta int) { e.tracker.Add(delta) })
	// Worker placement — fn#i on machines[i % n] over the sorted member
	// list — is deterministic, so every node of a multi-node cluster
	// derives the same assignment and the same per-function rings.
	// Runtime state (queues, caches, loops) is built only for workers
	// on locally hosted machines.
	machines := e.clu.MachineNames()
	for _, f := range app.Functions() {
		var ids []string
		for i := 0; i < cfg.WorkersPerFunction; i++ {
			id := fmt.Sprintf("%s#%d", f.Name(), i)
			machine := machines[i%len(machines)]
			e.workerMachine[id] = machine
			e.workerFn[id] = f.Name()
			ids = append(ids, id)
			if !e.clu.IsLocal(machine) {
				continue
			}
			w := &worker{
				id:      id,
				machine: machine,
				fn:      f,
			}
			w.q.Store(queue.New[event.Event](cfg.QueueCapacity, cfg.QueuePolicy))
			// Even with 1.0's disparate per-worker caches, slates run
			// through the shared SlateStore interface and flush via the
			// group-commit (WAL + multi-put) pipeline.
			var slateWAL *wal.SlateBatchLog
			store := e.storeFor()
			if store != nil {
				slateWAL = wal.NewSlateBatchLog()
			}
			w.cache = slate.NewSharded(slate.ShardedConfig{
				Shards:        cfg.SlateShards,
				Capacity:      cfg.SlateCachePerWorker,
				Policy:        cfg.FlushPolicy,
				Store:         store,
				WAL:           slateWAL,
				MaxFlushBatch: cfg.FlushBatch,
				WALCheckpoint: true,
				TTLFor:        app.TTLFor,
			})
			e.workers[id] = w
		}
		e.rings[f.Name()] = hashring.New(ids, 0)
	}
	for _, m := range e.clu.LocalNames() {
		e.clu.SetHandler(m, e.deliverLocal)
		e.clu.SetBatchHandler(m, e.deliverLocalBatch)
	}
	// The node answers peer queries by running the node-local pipeline
	// for whichever hosted machine the coordinator addressed.
	e.clu.SetQueryHandler(func(machine string, req []byte) ([]byte, error) {
		spec, err := query.DecodeRequest(req)
		if err != nil {
			return nil, err
		}
		nr, err := e.queryLocal(machine, spec)
		if err != nil {
			return nil, err
		}
		return query.EncodeResponse(nr)
	})
	// The recovery manager subscribes to the master's failure and
	// rejoin broadcasts and owns the whole crash-to-healthy protocol
	// (ring updates included); the engine only reports failed sends
	// through its detector.
	e.rec = recovery.NewManager(recovery.Deps{
		Cluster:  e.clu,
		Adapter:  &recoveryAdapter{e: e},
		Lost:     e.lost,
		Counters: e.counters,
		Tracker:  e.tracker,
		Store:    e.storeFor(),
	}, cfg.Recovery)
	e.out = engine.NewCourier(engine.CourierConfig{
		Cluster:        e.clu,
		Counters:       e.counters,
		Tracker:        e.tracker,
		Lost:           e.lost,
		Detector:       e.rec.Detector(),
		Stopped:        &e.stopped,
		Policy:         cfg.QueuePolicy,
		OverflowStream: cfg.OverflowStream,
		SourceThrottle: cfg.SourceThrottle,
		OutboxCapacity: cfg.QueueCapacity,
		Route:          ingressOps{e: e}.Route,
		FuncOf:         ingressOps{e: e}.FuncOf,
		Reroute:        e.route,
	})
	e.ing = &ingress.Driver{
		Ops:            ingressOps{e: e},
		Counters:       e.counters,
		Tracker:        e.tracker,
		Lost:           e.lost,
		Machines:       len(machines),
		Policy:         cfg.QueuePolicy,
		OverflowStream: cfg.OverflowStream,
		SourceThrottle: cfg.SourceThrottle,
		Tracer:         e.tracer,
	}
	e.registerObs()
	e.start()
	return e, nil
}

func (e *Engine) storeFor() slate.Store {
	if e.cfg.Store == nil {
		return nil
	}
	return &slate.KVStore{Cluster: e.cfg.Store, Level: e.cfg.StoreLevel}
}

func (e *Engine) start() {
	for _, w := range e.workers {
		e.startWorker(w)
		if e.cfg.FlushPolicy == slate.Interval {
			e.wg.Add(1)
			go e.flusherLoop(w)
		}
	}
}

// startWorker launches a fresh conductor/task-processor pair over the
// worker's current queue. It runs at engine start and again when a
// crashed machine's workers are restarted on revival (the old loops
// exited when the failover drain closed their queue).
func (e *Engine) startWorker(w *worker) {
	req := make(chan taskRequest)
	resp := make(chan taskResponse)
	e.wg.Add(2)
	w.loops.Add(1)
	go e.conductorLoop(w, w.queue(), req, resp)
	go e.taskProcessorLoop(w, req, resp)
}

// conductorLoop is the Perl-conductor half of a 1.0 worker: it owns
// the queue, the slate cache, and all event logistics. The queue and
// channel pair are passed explicitly so a machine revival can install
// fresh ones without racing the retiring loops.
func (e *Engine) conductorLoop(w *worker, q *queue.Queue[event.Event], req chan taskRequest, resp chan taskResponse) {
	defer e.wg.Done()
	defer w.loops.Done()
	for {
		ev, err := q.Get()
		if err != nil {
			close(req)
			return
		}
		// A ring change (failover or rejoin) while the event was queued
		// may have moved the key to another worker; forward it rather
		// than break the single-writer property.
		if e.rings[w.fn.Name()].Lookup(ev.Key) != w.id {
			e.out.Deliver(w.fn.Name(), ev, engine.FromWorker)
			e.tracker.Dec()
			continue
		}
		var sp *obs.Span
		if ev.TraceEnq != 0 {
			sp = e.tracer.Start(ev.Stream, ev.Ingress, ev.TraceEnq)
		}
		r := taskRequest{ev: ev, isUpdate: w.fn.Kind == core.KindUpdate}
		codec := w.fn.Codec
		if r.isUpdate {
			sk := slate.Key{Updater: w.fn.Name(), Key: ev.Key}
			if codec != nil {
				// Typed updater: the decoded object (decoded at most
				// once per cache fill) crosses the IPC hop instead of
				// bytes, pinned in the cache so the flusher leaves it
				// alone until the post-invocation PutDecoded. A read
				// error (store failure, undecodable row) falls back to
				// a fresh zero-value slate — the byte path's
				// disposition for an always-replacing updater — and is
				// counted in the cache's DecodeErrors.
				r.slateObj, _ = w.cache.GetDecoded(sk, codec)
				if r.slateObj == nil {
					r.slateObj = codec.New()
				}
			} else {
				r.slateIn, _ = w.cache.Get(sk)
			}
		}
		// The 1.0 design pays an IPC hop here: event (and slate) cross
		// to the task-processor process and back.
		req <- r
		rsp := <-resp
		if r.isUpdate && codec != nil {
			w.cache.PutDecoded(slate.Key{Updater: w.fn.Name(), Key: ev.Key}, r.slateObj, codec)
			e.counters.SlateUpdates.Add(1)
			e.counters.ObserveLatency(ev)
		} else if rsp.replaced {
			w.cache.Put(slate.Key{Updater: w.fn.Name(), Key: ev.Key}, rsp.newSlate)
			e.counters.SlateUpdates.Add(1)
			e.counters.ObserveLatency(ev)
		}
		sp.MarkExec()
		for _, out := range rsp.outputs {
			e.route(e.derive(out, rsp.arena, ev), engine.FromWorker)
		}
		sp.MarkEmit()
		e.tracer.Finish(sp)
		e.counters.Processed.Add(1)
		e.tracker.Dec()
	}
}

// taskProcessorLoop is the JVM half: it only runs the map or update
// code. It owns one reusable emitter — the conductor finishes routing
// a response before sending the next request, so resetting the
// emitter's scratch between invocations never races the consumer.
func (e *Engine) taskProcessorLoop(w *worker, req chan taskRequest, resp chan taskResponse) {
	defer e.wg.Done()
	var em collectEmitter
	for r := range req {
		em.reset(e.app, w.fn.Name(), r.isUpdate)
		switch w.fn.Kind {
		case core.KindMap:
			w.fn.Mapper.Map(&em, r.ev)
		case core.KindUpdate:
			if r.slateObj != nil {
				w.fn.Updater.(core.DecodedUpdater).UpdateDecoded(&em, r.ev, r.slateObj)
			} else {
				w.fn.Updater.Update(&em, r.ev, r.slateIn)
			}
		}
		// One allocation holds every published value; the conductor's
		// derived events slice it (the scratch arena is reused next
		// invocation, the events outlive it).
		var arena []byte
		if len(em.vals) > 0 {
			arena = make([]byte, len(em.vals))
			copy(arena, em.vals)
		}
		resp <- taskResponse{outputs: em.outputs, arena: arena, newSlate: em.newSlate, replaced: em.replaced, err: em.err}
	}
}

func (e *Engine) flusherLoop(w *worker) {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.flushers:
			return
		case <-ticker.C:
			if e.tracer != nil {
				start := time.Now()
				w.cache.FlushDirty()
				e.tracer.ObserveFlushSettle(time.Since(start))
			} else {
				w.cache.FlushDirty()
			}
		}
	}
}

// collectEmitter gathers a function invocation's outputs inside the
// task processor; the conductor routes them afterwards. One emitter
// lives per task-processor goroutine and is reset between invocations:
// the outputs slice and the value scratch arena keep their capacity,
// so a steady-state invocation allocates nothing inside the emitter.
type collectEmitter struct {
	app      *core.App
	function string
	isUpdate bool
	outputs  []emitted
	vals     []byte // scratch arena holding every published value
	newSlate []byte
	replaced bool
	err      error
}

func (c *collectEmitter) reset(app *core.App, function string, isUpdate bool) {
	c.app = app
	c.function = function
	c.isUpdate = isUpdate
	c.outputs = c.outputs[:0]
	c.vals = c.vals[:0]
	c.newSlate = nil
	c.replaced = false
	c.err = nil
}

// Publish implements core.Emitter.
func (c *collectEmitter) Publish(stream, key string, value []byte) error {
	if !c.app.MayPublish(c.function, stream) {
		err := core.ErrUndeclaredStream{Function: c.function, Stream: stream}
		if c.err == nil {
			c.err = err
		}
		return err
	}
	off := len(c.vals)
	c.vals = append(c.vals, value...)
	c.outputs = append(c.outputs, emitted{stream: stream, key: key, off: off, end: len(c.vals)})
	return nil
}

// ReplaceSlate implements core.Emitter.
func (c *collectEmitter) ReplaceSlate(value []byte) {
	if !c.isUpdate {
		panic(fmt.Sprintf("engine1: map function %s called ReplaceSlate", c.function))
	}
	// The slate cache retains the value, so it gets its own allocation
	// (never the reused arena); append to a non-nil empty slice so that
	// an empty slate stays distinct from "no slate" (nil) on the next
	// update call.
	c.newSlate = append([]byte{}, value...)
	c.replaced = true
}

// derive stamps an emitted record into a routable event: timestamp
// strictly greater than the input's, fresh sequence number, inherited
// ingress stamp, value sliced out of the invocation's arena (the
// three-index slice keeps a downstream append from growing into the
// next output's bytes).
func (e *Engine) derive(out emitted, arena []byte, in event.Event) event.Event {
	var value []byte
	if out.end > out.off {
		value = arena[out.off:out.end:out.end]
	}
	return event.Event{
		Stream:  out.stream,
		TS:      in.TS + 1,
		Seq:     e.seq.Add(1),
		Key:     out.key,
		Value:   value,
		Ingress: in.Ingress,
	}
}

// deliverLocal is the per-machine delivery handler: place the event on
// the addressed worker's queue. wait is false for a worker's own emits,
// which must never wait on a worker queue — the addressed one may be
// the emitting worker's own.
func (e *Engine) deliverLocal(workerID string, ev event.Event, wait bool) error {
	w := e.workers[workerID]
	if w == nil {
		return fmt.Errorf("engine1: unknown worker %s", workerID)
	}
	if e.tracer.Sample() {
		ev.TraceEnq = time.Now().UnixNano()
	}
	if !wait {
		return w.queue().Offer(ev)
	}
	return w.queue().Put(ev)
}

// deliverLocalBatch places a machine-addressed batch on the local
// worker queues, one PutBatch — one lock acquisition — per worker. The
// returned slice is parallel to ds; nil entries were accepted.
func (e *Engine) deliverLocalBatch(ds []cluster.Delivery) []error {
	byWorker := make(map[string][]int, 4)
	for i := range ds {
		byWorker[ds[i].Worker] = append(byWorker[ds[i].Worker], i)
	}
	var errs []error
	for wid, idxs := range byWorker {
		w := e.workers[wid]
		var n int
		var err error
		if w == nil {
			err = fmt.Errorf("engine1: unknown worker %s", wid)
		} else {
			evs := make([]event.Event, len(idxs))
			for j, i := range idxs {
				evs[j] = ds[i].Ev
				if e.tracer.Sample() {
					evs[j].TraceEnq = time.Now().UnixNano()
				}
			}
			n, err = w.queue().PutBatch(evs)
		}
		if err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(ds))
		}
		for _, i := range idxs[n:] {
			errs[i] = err
		}
	}
	return errs
}

// route fans an event out to every subscriber of its stream, on behalf
// of whoever produced it, recording it first if the stream is a
// declared output.
func (e *Engine) route(ev event.Event, from engine.Origin) {
	if e.app.IsOutput(ev.Stream) {
		e.sink.Record(ev)
	}
	for _, fn := range e.app.Subscribers(ev.Stream) {
		e.out.Deliver(fn, ev, from)
	}
}

// Ingest feeds one external input event into the application (the
// paper's special mapper M0 reading from the input stream). It stamps
// the event's ingress time for latency measurement.
func (e *Engine) Ingest(ev event.Event) {
	if !e.app.IsInput(ev.Stream) {
		panic(fmt.Sprintf("engine1: Ingest on non-input stream %s", ev.Stream))
	}
	if ev.Seq == 0 {
		ev.Seq = e.seq.Add(1)
	}
	if ev.Ingress == 0 {
		ev.Ingress = time.Now().UnixNano()
	}
	e.counters.Ingested.Add(1)
	e.route(ev, engine.FromSource)
}

// IngestBatch feeds a batch of external input events into the
// application through the shared ingress driver, amortizing the
// per-event ingress costs per destination-machine group (one cluster
// exchange, and one queue lock per worker, however many deliveries the
// group carries). It returns the number of events whose every
// subscriber delivery was accepted; when deliveries were dropped, the
// error is a *ingress.BatchError tallying the losses by reason (each
// also recorded in LostEvents). A batch containing a non-input stream
// is rejected whole with *ingress.NotInputError before any side
// effects.
func (e *Engine) IngestBatch(evs []event.Event) (int, error) {
	return e.ing.IngestBatch(evs)
}

// IngestCtx ingests one event, reporting backpressure and overflow
// instead of silently dropping: while the destination queue is full
// the call retries until the context is done, then fails with an error
// wrapping ingress.ErrBackpressure.
func (e *Engine) IngestCtx(ctx context.Context, ev event.Event) error {
	return e.ing.IngestCtx(ctx, ev)
}

// ingressOps adapts the engine to the shared ingress driver. Muppet
// 1.0 routes <function, key> on the function's own ring to a worker
// ID, and groups by that worker's machine.
type ingressOps struct {
	e *Engine
}

func (o ingressOps) Stopped() bool                      { return o.e.stopped.Load() }
func (o ingressOps) IsInput(stream string) bool         { return o.e.app.IsInput(stream) }
func (o ingressOps) IsOutput(stream string) bool        { return o.e.app.IsOutput(stream) }
func (o ingressOps) Subscribers(stream string) []string { return o.e.app.Subscribers(stream) }
func (o ingressOps) NextSeq() uint64                    { return o.e.seq.Add(1) }
func (o ingressOps) RecordOutput(ev event.Event)        { o.e.sink.Record(ev) }
func (o ingressOps) FuncOf(worker string) string {
	if fn, ok := o.e.workerFn[worker]; ok {
		return fn
	}
	return worker
}
func (o ingressOps) Route(fn, key string) (string, string) {
	ring := o.e.rings[fn]
	if ring == nil {
		return "", ""
	}
	wid := ring.Lookup(key)
	if wid == "" {
		return "", ""
	}
	return o.e.workerMachine[wid], wid
}
func (o ingressOps) SendBatch(machine string, ds []cluster.Delivery) (int, []cluster.BatchReject, error) {
	accepted, rejects, err := o.e.clu.SendBatch(machine, ds)
	if err == nil && !o.e.clu.IsLocal(machine) {
		o.e.rec.Detector().ObserveSendOK(machine)
		if accepted > 0 {
			// The driver charged the tracker for the whole batch before
			// the send; accepted deliveries now belong to the hosting
			// node's tracker (it charged itself on landing), so retire
			// them here. The driver itself retires the rejects.
			o.e.tracker.Add(-accepted)
		}
	}
	return accepted, rejects, err
}
func (o ingressOps) Send(machine, worker string, ev event.Event) error {
	err := o.e.clu.Send(machine, worker, ev)
	if err == nil && !o.e.clu.IsLocal(machine) {
		o.e.tracker.Dec()
		o.e.rec.Detector().ObserveSendOK(machine)
	}
	return err
}
func (o ingressOps) ObserveSendFailure(machine string) {
	o.e.rec.Detector().ObserveSendFailure(machine)
}
func (o ingressOps) ObserveTransientFailure(machine string) {
	o.e.rec.Detector().ObserveTransientFailure(machine)
}
func (o ingressOps) Reroute(ev event.Event) { o.e.route(ev, engine.FromSource) }

// Subscribe attaches a live feed to a declared output stream: events
// arrive on the subscription's channel in publication order, and a
// slow subscriber's full buffer drops (and counts) rather than
// blocking workers. buf <= 0 selects the default buffer (256). Like
// Ingest on a non-input stream, subscribing to a stream the
// application does not declare as an output panics — the feed would
// never fire.
func (e *Engine) Subscribe(stream string, buf int) *engine.Subscription {
	if !e.app.IsOutput(stream) {
		panic(fmt.Sprintf("engine1: Subscribe on non-output stream %s", stream))
	}
	return e.sink.Subscribe(stream, buf)
}

// AttachOutput registers a synchronous handler for a declared output
// stream's events — the pluggable egress sink. It panics if the
// stream is not a declared output.
func (e *Engine) AttachOutput(stream string, h engine.OutputHandler) {
	if !e.app.IsOutput(stream) {
		panic(fmt.Sprintf("engine1: AttachOutput on non-output stream %s", stream))
	}
	e.sink.Attach(stream, h)
}

// Drain blocks until every accepted event has been fully processed.
func (e *Engine) Drain() { e.tracker.Wait() }

// Stop drains, halts all workers, flushes dirty slates to the store,
// and closes the cluster transport. It is idempotent.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.tracker.Wait()
	e.stopMu.Lock()
	close(e.flushers)
	for _, w := range e.workers {
		w.queue().Close()
	}
	e.wg.Wait()
	e.stopMu.Unlock()
	// The workers are gone; let the senders ship what a delivery racing
	// the stop may still have queued, while the transport is open.
	e.out.Close()
	for _, w := range e.workers {
		w.cache.FlushDirty()
	}
	// Close the egress sink last: subscriber channels close only after
	// every in-flight event has been recorded.
	e.sink.Close()
	e.clu.Close()
}

// CrashMachine simulates a machine failure with the stock §4.3
// disposition, via the shared recovery subsystem: the machine stops
// accepting events, every queued event and dirty slate on it is lost
// (and logged), and flush batches retained in the slate group-commit
// WAL are replayed into the store. Detection is left to the next
// failed send.
func (e *Engine) CrashMachine(machine string) (lostQueued int, lostDirtySlates int) {
	rep := e.rec.Crash(machine)
	return rep.QueuedLost, rep.DirtyLost
}

// RejoinMachine revives a crashed machine through the recovery
// subsystem: its workers restart on fresh queues, the master
// broadcasts the rejoin, the rings re-enable its workers, and their
// slate caches are warmed from the durable store (unless disabled by
// Config.Recovery).
func (e *Engine) RejoinMachine(machine string) (recovery.RejoinReport, error) {
	return e.rec.Rejoin(machine)
}

// RecoveryStatus snapshots the recovery subsystem: per-machine
// liveness and ring membership, failover/rejoin counters, WAL replay
// totals, and the latest incident reports.
func (e *Engine) RecoveryStatus() recovery.Status { return e.rec.Status() }

// Recovery exposes the engine's recovery manager (for latency
// histograms and tests).
func (e *Engine) Recovery() *recovery.Manager { return e.rec }

// recoveryAdapter is the engine's implementation of the recovery
// subsystem's engine-facing surface (recovery.Adapter). Muppet 1.0
// spreads each function's workers across machines, so ring membership
// is per worker ID on per-function rings.
type recoveryAdapter struct {
	e *Engine
}

func (a *recoveryAdapter) RemoveFromRing(machine string) {
	// workerFn, not workers: ring membership must flip for workers any
	// node hosts, and this node has no worker struct for remote ones.
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		a.e.rings[a.e.workerFn[wid]].Disable(wid)
	}
}

func (a *recoveryAdapter) RestoreToRing(machine string) {
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		a.e.rings[a.e.workerFn[wid]].Enable(wid)
	}
}

func (a *recoveryAdapter) DrainQueues(machine string, drained func(function string, ev event.Event)) {
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		w := a.e.workers[wid]
		if w == nil {
			continue // hosted by another node; its queues die there
		}
		// Drain closes the queue atomically, so the worker's loops exit
		// immediately instead of consuming a backlog a dead machine
		// could never have processed.
		for _, ev := range w.queue().Drain() {
			drained(w.fn.Name(), ev)
			a.e.tracker.Dec()
		}
	}
}

func (a *recoveryAdapter) AwaitWorkers(machine string) {
	for wid, wm := range a.e.workerMachine {
		if w := a.e.workers[wid]; wm == machine && w != nil {
			w.loops.Wait()
		}
	}
}

func (a *recoveryAdapter) CrashSlates(machine string) ([]*wal.SlateBatchLog, int) {
	var wals []*wal.SlateBatchLog
	dirtyLost := 0
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		w := a.e.workers[wid]
		if w == nil {
			continue // hosted by another node; its caches die there
		}
		if s, ok := w.cache.(*slate.Sharded); ok {
			wals = append(wals, s.WAL())
		}
		dirtyLost += w.cache.Crash()
	}
	return wals, dirtyLost
}

// UnackedEvents: Muppet 1.0 keeps no delivery replay log.
func (a *recoveryAdapter) UnackedEvents(machine string) []engine.Envelope { return nil }

func (a *recoveryAdapter) Redeliver(function string, ev event.Event) {
	a.e.out.Deliver(function, ev, engine.FromWorker)
}

func (a *recoveryAdapter) RestartWorkers(machine string) {
	// Under stopMu: Stop cannot begin (or finish) its wg.Wait while
	// fresh loops are being added, and once Stop has swapped stopped we
	// refuse to start any.
	a.e.stopMu.Lock()
	defer a.e.stopMu.Unlock()
	if a.e.stopped.Load() {
		return
	}
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		w := a.e.workers[wid]
		if w == nil {
			continue // hosted by another node; it restarts them
		}
		// Updates mid-process at crash time completed against the
		// already-crashed cache and re-inserted dead-lineage values;
		// drop them so they cannot shadow the store once the ring
		// routes the keys back here.
		for _, k := range w.cache.Keys() {
			w.cache.Delete(k)
		}
		w.q.Replace(queue.New[event.Event](a.e.cfg.QueueCapacity, a.e.cfg.QueuePolicy))
		a.e.startWorker(w)
	}
}

func (a *recoveryAdapter) FlushSlates() { a.e.FlushSlates() }

func (a *recoveryAdapter) DropMisplacedSlates() {
	for wid, w := range a.e.workers {
		ring := a.e.rings[w.fn.Name()]
		var misplaced []slate.Key
		for _, k := range w.cache.Keys() {
			if ring.Lookup(k.Key) != wid {
				misplaced = append(misplaced, k)
			}
		}
		if len(misplaced) == 0 {
			continue
		}
		// An update that slipped in between the handover flush and the
		// ring flip may have re-dirtied a moved key; persist it before
		// the eviction or the count would silently vanish. If the store
		// is unreachable, keep the entries — a stale-copy hazard beats
		// dropping dirty data, and the next ring change retries.
		if _, err := w.cache.FlushDirty(); err != nil {
			continue
		}
		for _, k := range misplaced {
			w.cache.Delete(k)
		}
	}
}

func (a *recoveryAdapter) WarmSlates(machine string, limit int) int {
	if a.e.cfg.Store == nil {
		return 0
	}
	// Group the machine's update workers by function so each updater's
	// column is scanned once, not once per worker.
	byUpdater := make(map[string][]string)
	for wid, wm := range a.e.workerMachine {
		if wm != machine {
			continue
		}
		if w := a.e.workers[wid]; w != nil && w.fn.Kind == core.KindUpdate {
			byUpdater[w.fn.Name()] = append(byUpdater[w.fn.Name()], wid)
		}
	}
	// Collect the workers' keys first: the store holds its node lock
	// across the scan callback, so the load-through reads must happen
	// after the scan returns. ScanUntil stops at the warm limit rather
	// than sweeping the whole store.
	type warmKey struct {
		wid string
		k   slate.Key
	}
	var keys []warmKey
	for updater, wids := range byUpdater {
		if len(keys) >= limit {
			break
		}
		owned := make(map[string]bool, len(wids))
		for _, wid := range wids {
			owned[wid] = true
		}
		a.e.cfg.Store.ScanUntil(updater, func(key string, _ []byte) bool {
			if wid := a.e.rings[updater].Lookup(key); owned[wid] {
				k := slate.Key{Updater: updater, Key: key}
				if _, ok := a.e.workers[wid].cache.Peek(k); !ok {
					keys = append(keys, warmKey{wid: wid, k: k})
				}
			}
			return len(keys) < limit
		})
	}
	warmed := 0
	for _, wk := range keys {
		// Get loads through from the store and caches the slate clean —
		// exactly the state a warm cache should be in.
		if v, err := a.e.workers[wk.wid].cache.Get(wk.k); err == nil && v != nil {
			warmed++
		}
	}
	return warmed
}

// RingMembers reports a machine as in the ring when any of its workers
// is still enabled on its function's ring.
func (a *recoveryAdapter) RingMembers() map[string]bool {
	out := make(map[string]bool)
	for wid, wm := range a.e.workerMachine {
		enabled := !a.e.rings[a.e.workerFn[wid]].Disabled(wid)
		out[wm] = out[wm] || enabled
	}
	return out
}

// Slate returns the current slate for <updater, key>, reading the
// owning worker's cache (and falling through to the durable store on a
// cache miss). It returns nil if no slate exists. When the owning
// worker lives on another node, the local read falls back to the
// shared durable store; without a store it returns nil — query the
// owning node.
func (e *Engine) Slate(updater, key string) []byte {
	ring := e.rings[updater]
	if ring == nil {
		return nil
	}
	wid := ring.Lookup(key)
	if wid == "" {
		return nil
	}
	w := e.workers[wid]
	if w == nil {
		if st := e.storeFor(); st != nil {
			v, _, _ := st.Load(slate.Key{Updater: updater, Key: key})
			return v
		}
		return nil
	}
	v, _ := w.cache.Get(slate.Key{Updater: updater, Key: key})
	return v
}

// Slates returns all cached slates of an updater merged across its
// workers (cache contents only; evicted slates must be read through
// Slate).
func (e *Engine) Slates(updater string) map[string][]byte {
	out := make(map[string][]byte)
	for wid, w := range e.workers {
		if e.workers[wid].fn.Name() != updater {
			continue
		}
		for _, k := range w.cache.Keys() {
			if v, ok := w.cache.Peek(k); ok {
				out[k.Key] = v
			}
		}
	}
	return out
}

// StoredSlates bulk-reads all of an updater's slates from the durable
// key-value store (the "large-volume row reads" path of Section 5).
// It returns nil when the engine runs without persistence. Callers
// should flush first if they need the newest state; the cache, not the
// store, is the up-to-date view (Section 4.4).
func (e *Engine) StoredSlates(updater string) map[string][]byte {
	if e.cfg.Store == nil {
		return nil
	}
	out := make(map[string][]byte)
	e.cfg.Store.Scan(updater, func(key string, stored []byte) {
		raw, err := slate.Decode(stored)
		if err != nil {
			return
		}
		out[key] = raw
	})
	return out
}

// FlushSlates forces every dirty cached slate to the durable store.
func (e *Engine) FlushSlates() {
	for _, w := range e.workers {
		w.cache.FlushDirty()
	}
}

// Output returns the recorded events of a declared output stream.
func (e *Engine) Output(stream string) []event.Event { return e.sink.Events(stream) }

// LostEvents exposes the log of abandoned deliveries ("logged as
// lost", §4.3) for later processing and debugging.
func (e *Engine) LostEvents() *engine.LostLog { return e.lost }

// Stats snapshots the engine counters.
func (e *Engine) Stats() engine.Stats {
	s := e.counters.Snapshot()
	s.OutputDropped = e.sink.Dropped()
	return s
}

// Counters exposes the live counters (for latency percentiles).
func (e *Engine) Counters() *engine.Counters { return e.counters }

// Cluster exposes the simulated machine cluster (for failure
// injection in tests and benches).
func (e *Engine) Cluster() *cluster.Cluster { return e.clu }

// WorkerFor reports which worker owns <key, fn> right now; tests use
// it to assert the single-writer property.
func (e *Engine) WorkerFor(fn, key string) string {
	if r := e.rings[fn]; r != nil {
		return r.Lookup(key)
	}
	return ""
}

// QueueStats returns per-worker queue statistics keyed by worker ID.
func (e *Engine) QueueStats() map[string]queue.Stats {
	out := make(map[string]queue.Stats, len(e.workers))
	for id, w := range e.workers {
		out[id] = w.qstats()
	}
	return out
}

// LargestQueues returns the depth of the most loaded worker queue per
// machine, the figure the status endpoint reports.
func (e *Engine) LargestQueues() map[string]int {
	out := make(map[string]int)
	for _, name := range e.clu.MachineNames() {
		out[name] = 0
	}
	for wid, w := range e.workers {
		m := e.workerMachine[wid]
		if l := w.queue().Len(); l > out[m] {
			out[m] = l
		}
	}
	return out
}

// Updaters returns the application's update function names.
func (e *Engine) Updaters() []string { return e.app.Updaters() }

// MachineAccepted returns the number of deliveries accepted per
// machine.
func (e *Engine) MachineAccepted() map[string]uint64 {
	out := make(map[string]uint64)
	for wid, w := range e.workers {
		out[e.workerMachine[wid]] += w.qstats().Accepted
	}
	return out
}

// CacheTotals returns aggregate (store loads, hits, misses) across all
// worker caches.
func (e *Engine) CacheTotals() (loads, hits, misses uint64) {
	for _, w := range e.workers {
		s := w.cache.Stats()
		loads += s.StoreLoads
		hits += s.Hits
		misses += s.Misses
	}
	return loads, hits, misses
}

// StoreSaves returns the total slate writes issued to the durable
// store across all worker caches.
func (e *Engine) StoreSaves() uint64 {
	var total uint64
	for _, w := range e.workers {
		total += w.cache.Stats().StoreSaves
	}
	return total
}

// MaxQueueDepth returns the deepest any worker queue ever got.
func (e *Engine) MaxQueueDepth() int {
	max := 0
	for _, w := range e.workers {
		if d := w.qstats().MaxDepth; d > max {
			max = d
		}
	}
	return max
}

// AcceptedPerQueue returns the accepted-delivery count of every worker
// queue.
func (e *Engine) AcceptedPerQueue() []uint64 {
	var out []uint64
	for _, w := range e.workers {
		out = append(out, w.qstats().Accepted)
	}
	return out
}

// FlushStats aggregates the workers' group-commit flush counters.
func (e *Engine) FlushStats() slate.FlushStats {
	var total slate.FlushStats
	for _, w := range e.workers {
		if s, ok := w.cache.(*slate.Sharded); ok {
			total.Add(s.FlushStats())
		}
	}
	return total
}

// CacheStats aggregates slate-cache statistics across all workers of
// the given updater.
func (e *Engine) CacheStats(updater string) slate.CacheStats {
	var total slate.CacheStats
	for _, w := range e.workers {
		if w.fn.Name() != updater {
			continue
		}
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
