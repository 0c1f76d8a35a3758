package runtime

import (
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/kvstore"
	"muppet/internal/metrics"
	"muppet/internal/obs"
	"muppet/internal/query"
	"muppet/internal/queue"
	"muppet/internal/recovery"
	"muppet/internal/slate"
)

// Config tunes an engine: the runtime's knobs plus the few only one
// dispatch strategy reads.
type Config struct {
	// Machines is the number of simulated machines.
	Machines int
	// WorkersPerFunction (1.0) is the number of workers started for each
	// map and update function, spread across machines: "set based on the
	// nature of the application, not based on the number of cores"
	// (Section 4.5). Default: one per machine.
	WorkersPerFunction int
	// ThreadsPerMachine (2.0) is the worker-thread pool size per machine;
	// the paper advises as many as the application's parallel-scaling
	// limit allows, often the core count. Default 4.
	ThreadsPerMachine int
	// QueueCapacity bounds each event queue (default 1024).
	QueueCapacity int
	// QueuePolicy is the overflow behavior for internal event passing.
	QueuePolicy queue.OverflowPolicy
	// OverflowStream receives diverted events under the Divert policy.
	OverflowStream string
	// CacheCapacity is each cell's slate-cache capacity in slates: per
	// worker under 1.0's disparate caches (default 10 000), per machine
	// under 2.0's central cache (default 100 000) — Section 4.5.
	CacheCapacity int
	// FlushPolicy controls when dirty slates reach the key-value store.
	FlushPolicy slate.FlushPolicy
	// FlushInterval drives the background flusher under slate.Interval
	// (default 100ms).
	FlushInterval time.Duration
	// Store is the durable key-value cluster; nil disables persistence.
	Store *kvstore.Cluster
	// StoreLevel is the consistency level for slate I/O.
	StoreLevel kvstore.Consistency
	// DisableDualQueue (2.0) restricts dispatch to the primary queue
	// only, restoring the 1.0-style single-owner behavior; experiment E6
	// uses it as the ablation baseline. Per-<function, key> order holds
	// only with the single queue; the dual-queue spill gives it up.
	DisableDualQueue bool
	// SlateShards is the number of stripes in each cell's slate store
	// (default 4 under 1.0, whose workers are single-threaded, and 16
	// under 2.0, whose threads contend on per-shard locks).
	SlateShards int
	// FlushBatch bounds the records per group-commit multi-put when
	// dirty slates are flushed (default 256).
	FlushBatch int
	// Recovery tunes the failure-recovery subsystem's detector; the
	// zero value picks its defaults.
	Recovery recovery.Config
	// Cluster, when non-nil, is an externally wired cluster node (node
	// mode): the engine hosts cells only for the cluster's local
	// machines and reaches the rest through its transport. Nil builds
	// the single-process simulation from Machines. The
	// engine owns the cluster's lifecycle either way: Stop closes it.
	Cluster *cluster.Cluster
	// Observability tunes the sampled event-lifecycle tracer. The zero
	// value disables tracing entirely (nil tracer, zero hot-path cost);
	// the metrics registry is always on — collectors are lazy.
	Observability obs.TracerConfig
}

// Cell is the unit that owns slates and consumes queues: one hosted
// worker under Muppet 1.0, one hosted machine under 2.0. Each queue
// lives in a queue.Slot because it is replaced when the cell's machine
// is revived after a crash (the failover drain closed the old one and
// its loops exited), with retired queues' stats folded in.
type Cell struct {
	// Machine hosts the cell.
	Machine string
	// Address is the one address on Machine the cell serves; empty means
	// every address (2.0 addresses a machine's pool by function name).
	Address string
	// Cache holds the cell's slates.
	Cache *slate.Sharded
	// Queues are the cell's event queues, one per consuming loop.
	Queues []queue.Slot[engine.Envelope]
	// latency holds each queue slot's loop's shard of Counters.Latency
	// (see Commit), kept across revivals.
	latency metrics.Shards[time.Duration]
	// loops counts the goroutines consuming Queues, so an operator kill
	// can wait out the invocations in progress.
	loops sync.WaitGroup
}

// Name labels the cell in statistics and metrics: its address when it
// has one (1.0's worker ID), otherwise its machine.
func (c *Cell) Name() string {
	if c.Address != "" {
		return c.Address
	}
	return c.Machine
}

func (c *Cell) serves(address string) bool {
	return c.Address == "" || c.Address == address
}

// Dispatcher is what a Muppet version decides for itself: where
// <function, key> lives and how an event reaches a thread. Muppet 1.0
// places workers fn#i round-robin on machines, routes on per-function
// rings and runs a conductor/task-processor pair per worker; Muppet 2.0
// routes on one machine ring and dispatches into a per-machine thread
// pool over primary and secondary queues.
type Dispatcher interface {
	// Route resolves the owner of <fn, key>: the machine and the address
	// on it. An empty machine means no live owner.
	Route(fn, key string) (machine, address string)
	// RouteHash is the ring position Route resolves <fn, key> from. It
	// is a pure function of the pair, so a slate cache keeps it for the
	// slate's life (slate.ShardedConfig.RouteHash).
	RouteHash(fn, key string) uint64
	// RouteOf resolves a RouteHash of fn's to its owner exactly as Route
	// would, against the ring(s) as they stand: one ring lookup.
	RouteOf(fn string, h uint64) (machine, address string)
	// FuncOf maps an address back to its function name.
	FuncOf(address string) string
	// EnqueueBatch places a machine-addressed batch (a single emit is a
	// batch of one) on cell queues, one queue lock per target queue. A
	// batch with a delivery marked NoWait — a worker's emit (the chosen
	// queue may be the emitter's own), or any frame from a peer — takes
	// the non-waiting enqueue. The result is parallel to ds; nil entries (or a
	// nil slice) were accepted.
	EnqueueBatch(machine string, ds []cluster.Delivery) []error
	// SetRing takes a machine's addresses off the ring(s), so keys
	// reroute to ring successors, or puts them back.
	SetRing(machine string, enabled bool)
	// RingMembers reports, per machine, whether it is enabled on the
	// ring(s).
	RingMembers() map[string]bool
	// Scatter lists the machines a query over updater must reach.
	Scatter(updater string) ([]string, error)
	// StartCell launches, through Runtime.Go, the goroutines consuming
	// the cell's current queues: at start, and again after a revival
	// replaced the queues a crash had closed.
	StartCell(c *Cell)
}

// Runtime is everything an engine is apart from its Dispatcher. The
// two engine types embed it.
type Runtime struct {
	app  *core.App
	cfg  Config
	clu  *cluster.Cluster
	disp Dispatcher

	cells     []*Cell
	byMachine map[string][]*Cell

	rec *recovery.Manager
	ing *ingress.Driver
	// out carries worker emits and fire-and-forget ingests outside Block
	// to their owners — a frame of one on this node, through a per-destination
	// outbox to machines other nodes host — and classifies every send
	// outcome, the ingress driver's included.
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
	cover    coverage
	detach   func() // undoes Start's Store.Attach; nil without a store
	stopped  atomic.Bool
	// saveRefused is set by the first failed write-through save, which
	// Commit logs; the cache counts every one.
	saveRefused atomic.Bool
	done        chan struct{} // closed by Stop; ends the flusher loops
	wg          sync.WaitGroup
	// stopMu serializes Stop against a rejoin's worker restart, so fresh
	// loops are never added to wg while Stop is waiting on it.
	stopMu sync.Mutex
}

// Init validates the application and builds the state a strategy needs
// to lay out its cells: the cluster node, counters, sink and registry.
// The strategy then adds its cells with AddCell and calls Start.
func (r *Runtime) Init(app *core.App, cfg Config) error {
	if err := app.Validate(); err != nil {
		return err
	}
	if cfg.Machines <= 0 {
		cfg.Machines = 1
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 100 * time.Millisecond
	}
	r.app, r.cfg, r.clu = app, cfg, cfg.Cluster
	if r.clu == nil {
		r.clu = cluster.New(cluster.Config{Machines: cfg.Machines})
	}
	r.byMachine = make(map[string][]*Cell)
	r.reg = obs.NewRegistry()
	r.tracer = obs.NewTracer(app.Name(), cfg.Observability)
	r.counters = engine.NewCounters()
	r.tracker = engine.NewTracker()
	r.sink = engine.NewSink()
	r.lost = engine.NewLostLog(0)
	r.queries = query.NewCounters()
	r.done = make(chan struct{})
	// Remote-origin deliveries are charged to this node's in-flight
	// tracker when they land (and credited back if bounced), so Drain
	// covers events handed off by peer nodes.
	r.clu.OnRemoteInflight(func(delta int) { r.tracker.Add(delta) })
	return nil
}

// AddCell builds one cell on a hosted machine: its queues and its slate
// cache, which flushes through the group-commit (multi-put) pipeline
// whichever version runs.
func (r *Runtime) AddCell(machine, address string, queues int) *Cell {
	c := &Cell{Machine: machine, Address: address, Queues: make([]queue.Slot[engine.Envelope], queues)}
	for i := range c.Queues {
		c.Queues[i].Store(r.newQueue())
	}
	c.Cache = slate.NewSharded(slate.ShardedConfig{
		Shards:        r.cfg.SlateShards,
		Capacity:      r.cfg.CacheCapacity,
		Policy:        r.cfg.FlushPolicy,
		Store:         r.slateStore(),
		MaxFlushBatch: r.cfg.FlushBatch,
		TTLFor:        r.app.TTLFor,
		OnPoison: func(k slate.Key) {
			r.lost.Record(k.Updater, event.Event{Key: k.Key}, engine.LossEncode)
		},
		RouteHash: r.routeHash,
	})
	r.cells = append(r.cells, c)
	r.byMachine[machine] = append(r.byMachine[machine], c)
	return c
}

// routeHash is every cell cache's RouteHash: the dispatcher's, read
// when a Scan first needs it (the cells are built before Start plugs the
// dispatcher in).
func (r *Runtime) routeHash(fn, key string) uint64 { return r.disp.RouteHash(fn, key) }

func (r *Runtime) newQueue() *queue.Queue[engine.Envelope] {
	return queue.New[engine.Envelope](r.cfg.QueueCapacity, r.cfg.QueuePolicy)
}

// slateStore returns the durable slate adapter, nil without a store.
func (r *Runtime) slateStore() slate.Store {
	if r.cfg.Store == nil {
		return nil
	}
	return &slate.KVStore{Cluster: r.cfg.Store, Level: r.cfg.StoreLevel}
}

// Start plugs the dispatcher in, attaches to the store (see coverage),
// wires the node — delivery and query handlers, recovery manager,
// courier, ingress driver, metrics, a latency shard per loop — and starts
// every cell's loops and, under slate.Interval with a store, its flusher.
// The only error is a stats struct with a field obs.Struct cannot expose.
func (r *Runtime) Start(d Dispatcher) error {
	r.disp = d
	if r.cfg.Store != nil {
		r.detach = r.cfg.Store.Attach()
	}
	for _, name := range r.clu.LocalNames() {
		r.clu.SetBatchHandler(name, func(ds []cluster.Delivery) []error {
			return d.EnqueueBatch(name, ds)
		})
	}
	// The node answers peer queries by running the node-local pipeline
	// for whichever hosted machine the coordinator addressed.
	r.clu.SetQueryHandler(func(machine string, req []byte) ([]byte, error) {
		spec, err := query.DecodeRequest(req)
		if err != nil {
			return nil, err
		}
		nr, err := r.queryLocal(machine, spec)
		if err != nil {
			return nil, err
		}
		return query.EncodeResponse(nr)
	})
	// The recovery manager owns the whole crash-to-healthy protocol
	// (ring updates included); the engine only reports failed sends
	// through its detector.
	r.rec = recovery.NewManager(recovery.Deps{
		Cluster:  r.clu,
		Adapter:  recoveryAdapter{r},
		Lost:     r.lost,
		Counters: r.counters,
		Tracker:  r.tracker,
		Store:    r.slateStore(),
	}, r.cfg.Recovery)
	r.out = engine.NewCourier(engine.CourierConfig{
		Cluster:        r.clu,
		Counters:       r.counters,
		Tracker:        r.tracker,
		Lost:           r.lost,
		Detector:       r.rec.Detector(),
		Stopped:        &r.stopped,
		Policy:         r.cfg.QueuePolicy,
		OverflowStream: r.cfg.OverflowStream,
		OutboxCapacity: r.cfg.QueueCapacity,
		Route:          d.Route,
		FuncOf:         d.FuncOf,
		Reroute:        func(ev event.Event, from engine.Origin) { r.route(ev, from, nil) },
	})
	r.ing = &ingress.Driver{
		App:      r.app,
		Courier:  r.out,
		Sink:     r.sink,
		Seq:      &r.seq,
		Tracer:   r.tracer,
		Machines: len(r.clu.MachineNames()),
	}
	// Every consuming loop observes latency into a shard of its own.
	slots := 0
	for _, c := range r.cells {
		slots += len(c.Queues)
	}
	shards := metrics.NewShards[time.Duration](slots)
	r.counters.Latency = shards
	for _, c := range r.cells {
		c.latency, shards = shards[:len(c.Queues)], shards[len(c.Queues):]
	}
	if err := r.registerObs(); err != nil {
		return err
	}
	for _, c := range r.cells {
		d.StartCell(c)
		if r.cfg.FlushPolicy == slate.Interval && r.cfg.Store != nil { // else nowhere to flush to
			r.wg.Add(1)
			go r.flusherLoop(c)
		}
	}
	return nil
}

// Go runs loop as one of the goroutines consuming c's queues: Stop
// waits for it, and so does an operator kill of c's machine.
func (r *Runtime) Go(c *Cell, loop func()) {
	r.wg.Add(1)
	c.loops.Add(1)
	go func() {
		defer r.wg.Done()
		defer c.loops.Done()
		loop()
	}()
}

// flusherLoop is a cell's background I/O thread: it writes dirty slates
// to the durable store so map and update calls never block on storage
// (Section 4.5).
func (r *Runtime) flusherLoop(c *Cell) {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.done:
			return
		case <-ticker.C:
			start := time.Now()
			c.Cache.FlushDirty()
			r.tracer.ObserveFlushSettle(time.Since(start))
		}
	}
}

// Drain blocks until every accepted event has been fully processed.
func (r *Runtime) Drain() { r.tracker.Wait() }

// Stop drains, halts every loop, flushes dirty slates to the store and
// detaches from it, and closes the cluster transport. It is idempotent.
func (r *Runtime) Stop() {
	if r.stopped.Swap(true) {
		return
	}
	r.tracker.Wait()
	r.stopMu.Lock()
	close(r.done)
	for _, c := range r.cells {
		for i := range c.Queues {
			c.Queues[i].Queue().Close()
		}
	}
	r.wg.Wait()
	r.stopMu.Unlock()
	// The workers are gone; let the senders ship what a delivery racing
	// the stop may still have queued, while the transport is open.
	r.out.Close()
	r.FlushSlates()
	if r.detach != nil {
		r.detach()
	}
	// Close the egress sink last: subscriber channels close only after
	// every in-flight event has been recorded.
	r.sink.Close()
	r.clu.Close()
}

// App returns the application this engine runs.
func (r *Runtime) App() *core.App { return r.app }

// Updaters returns the application's update function names.
func (r *Runtime) Updaters() []string { return r.app.Updaters() }

// Cluster exposes the machine cluster (for failure injection in tests
// and benches).
func (r *Runtime) Cluster() *cluster.Cluster { return r.clu }
