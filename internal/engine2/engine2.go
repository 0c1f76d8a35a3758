package engine2

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

// Config tunes the Muppet 2.0 engine.
type Config struct {
	// Machines is the number of simulated machines.
	Machines int
	// ThreadsPerMachine is the worker-thread pool size per machine; the
	// paper advises as many as the application's parallel-scaling limit
	// allows, often the core count.
	ThreadsPerMachine int
	// QueueCapacity bounds each worker thread's queue.
	QueueCapacity int
	// QueuePolicy is the overflow behavior for internal event passing.
	QueuePolicy queue.OverflowPolicy
	// OverflowStream receives diverted events under the Divert policy.
	OverflowStream string
	// CacheCapacity is the central slate-cache capacity per machine —
	// one pool, not scattered per-worker caches (Section 4.5).
	CacheCapacity int
	// FlushPolicy controls when dirty slates reach the key-value store.
	FlushPolicy slate.FlushPolicy
	// FlushInterval drives the background flusher under slate.Interval.
	FlushInterval time.Duration
	// Store is the durable key-value cluster; nil disables persistence.
	Store *kvstore.Cluster
	// StoreLevel is the consistency level for slate I/O.
	StoreLevel kvstore.Consistency
	// SourceThrottle makes Ingest wait-and-retry on a full queue.
	SourceThrottle bool
	// SendLatency is the simulated per-hop network latency.
	SendLatency time.Duration
	// DisableDualQueue restricts dispatch to the primary queue only,
	// restoring the 1.0-style single-owner behavior; experiment E6
	// uses it as the ablation baseline.
	DisableDualQueue bool
	// ReplayLog enables the event replay capability the paper lists as
	// future work (§4.3): every accepted delivery is logged until
	// fully processed, and CrashMachineAndReplay redelivers a dead
	// machine's unacknowledged events to the keys' new owners
	// (at-least-once semantics).
	ReplayLog bool
	// SecondarySpillFactor: the event goes to the secondary queue when
	// primaryLen > SecondarySpillFactor*secondaryLen + 4. Default 2.
	SecondarySpillFactor int
	// SlateShards is the number of stripes in each machine's central
	// slate store (default 16): worker threads touching different
	// slates contend on per-shard locks, not one cache-wide mutex.
	SlateShards int
	// FlushBatch bounds the records per group-commit multi-put when
	// the background flusher drains dirty slates (default 256).
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
	// mode): the engine hosts runtime state only for the cluster's
	// local machines and reaches the rest through its transport. Nil
	// builds the single-process simulation from Machines/SendLatency.
	// The engine owns the cluster's lifecycle either way: Stop closes
	// it.
	Cluster *cluster.Cluster
	// Observability is the sampled event-lifecycle tracing knob; the
	// zero value disables tracing (the registry is always on).
	Observability obs.TracerConfig
}

func (c *Config) fill() {
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.ThreadsPerMachine <= 0 {
		c.ThreadsPerMachine = 4
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 1024
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 100_000
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 100 * time.Millisecond
	}
	if c.SecondarySpillFactor <= 0 {
		c.SecondarySpillFactor = 2
	}
}

// fk is the (function, key) pair dispatch decisions are made on.
type fk struct {
	fn  string
	key string
}

// thread is one worker thread slot. Its queue lives in a queue.Slot:
// it is replaced when the machine is revived after a crash (the old
// queue was closed by the failover drain), with retired queues' stats
// folded in. The reusable emitter lives in threadLoop, not here: a
// revival may start the replacement loop while the old loop is still
// finishing one in-process invocation, so the scratch must belong to
// the loop, never the slot.
type thread struct {
	idx int
	q   queue.Slot[engine.Envelope]
}

func (t *thread) queue() *queue.Queue[engine.Envelope] { return t.q.Queue() }
func (t *thread) stats() queue.Stats                   { return t.q.Stats() }

// slateLock serializes updates to one slate and tracks how many
// workers hold or wait for it (the contention the paper bounds at 2).
// sh is the stripe the lock was born in — locks recycle only within
// their stripe's free list, so release can reach the stripe without
// rehashing the key.
type slateLock struct {
	mu     sync.Mutex
	owners atomic.Int32
	refs   int
	sh     *lockShard
}

// slateLockShards is the stripe count of each machine's slate-lock
// table; a power of two so the key hash maps to a stripe with a mask.
// 128 stripes for at most ThreadsPerMachine concurrent holders makes
// cross-key collisions on a stripe mutex rare, and the per-stripe
// state is a map header plus a small free list.
const slateLockShards = 128

// lockShard is one stripe of the slate-lock table: its own mutex, the
// live locks of keys currently held or contended, and a free list of
// retired slateLocks. Recycling through the free list keeps slate
// acquisition allocation-free in steady state — the previous design
// (one process-wide map under a single mutex) both serialized every
// acquisition in the machine and allocated a fresh slateLock per
// event on hot keys.
type lockShard struct {
	mu    sync.Mutex
	locks map[slate.Key]*slateLock
	free  []*slateLock
}

// slateLockTable stripes per-slate locks over independent shards keyed
// by hashring.HashPair, so acquiring a slate touches one stripe mutex
// instead of a process-wide one. Per-key accounting (refs, owners) is
// exactly the old map's: a lock exists while any worker holds or waits
// for its key, and the Muppet-2.0 ≤2-owner contention bound is still
// observed per key, never per stripe.
type slateLockTable struct {
	shards [slateLockShards]lockShard
}

func newSlateLockTable() *slateLockTable {
	t := &slateLockTable{}
	for i := range t.shards {
		t.shards[i].locks = make(map[slate.Key]*slateLock)
	}
	return t
}

// lockSeparator feeds HashPair a byte outside UTF-8 text so
// ("ab","c") and ("a","bc") stripe independently.
const lockSeparator = 0xfd

func (t *slateLockTable) shardFor(sk slate.Key) *lockShard {
	h := hashring.HashPair(sk.Updater, lockSeparator, sk.Key)
	return &t.shards[h&(slateLockShards-1)]
}

// acquire blocks until the calling worker holds sk's lock, reporting
// the owner count (holders plus waiters) it observed to observe.
func (t *slateLockTable) acquire(sk slate.Key, observe func(int32)) *slateLock {
	sh := t.shardFor(sk)
	sh.mu.Lock()
	l := sh.locks[sk]
	if l == nil {
		if n := len(sh.free); n > 0 {
			l = sh.free[n-1]
			sh.free[n-1] = nil
			sh.free = sh.free[:n-1]
		} else {
			l = &slateLock{sh: sh}
		}
		sh.locks[sk] = l
	}
	l.refs++
	sh.mu.Unlock()
	if n := l.owners.Add(1); observe != nil {
		observe(n)
	}
	l.mu.Lock()
	return l
}

// release returns sk's lock; the last releaser retires the slateLock
// to its stripe's free list for reuse. The stripe comes off the lock
// itself, sparing the release a second key hash.
func (t *slateLockTable) release(sk slate.Key, l *slateLock) {
	l.mu.Unlock()
	l.owners.Add(-1)
	sh := l.sh
	sh.mu.Lock()
	l.refs--
	if l.refs == 0 {
		delete(sh.locks, sk)
		sh.free = append(sh.free, l)
	}
	sh.mu.Unlock()
}

// machine is the per-host runtime state.
type machine struct {
	name    string
	threads []*thread
	cache   slate.SlateStore

	// runningMu guards running: fk -> thread idx -> count of
	// invocations of that (function, key) currently executing on the
	// thread. The dispatcher's "follow the thread already processing
	// this key" rule reads it (Section 4.5).
	runningMu sync.Mutex
	running   map[fk]map[int]int

	// locks is the striped per-slate lock table (one stripe mutex per
	// acquisition instead of a machine-wide one).
	locks *slateLockTable

	// log is the replay log, nil unless Config.ReplayLog is set.
	log *wal.Log

	// loops counts the machine's running thread loops, so an operator
	// kill can wait out the invocations in progress (AwaitWorkers).
	loops sync.WaitGroup

	// scratchPool recycles batch-dispatch scratch space so a steady
	// batched-ingest loop allocates nothing per batch.
	scratchPool sync.Pool
}

// dispatchScratch is one batch dispatch's working memory: thread
// targets per delivery, per-thread counts and cached queue depths, and
// per-thread envelope staging buffers.
type dispatchScratch struct {
	targets []int32
	counts  []int
	lens    []int
	envs    [][]engine.Envelope
	idxs    [][]int
}

func (m *machine) scratch() *dispatchScratch {
	sc, _ := m.scratchPool.Get().(*dispatchScratch)
	if sc == nil {
		sc = &dispatchScratch{
			counts: make([]int, len(m.threads)),
			lens:   make([]int, len(m.threads)),
			envs:   make([][]engine.Envelope, len(m.threads)),
			idxs:   make([][]int, len(m.threads)),
		}
	}
	for i := range sc.counts {
		sc.counts[i] = 0
		sc.lens[i] = -1
	}
	return sc
}

func (m *machine) release(sc *dispatchScratch) {
	sc.targets = sc.targets[:0]
	for i := range sc.envs {
		sc.envs[i] = sc.envs[i][:0]
		sc.idxs[i] = sc.idxs[i][:0]
	}
	m.scratchPool.Put(sc)
}

func (m *machine) markRunning(k fk, idx int, delta int) {
	m.runningMu.Lock()
	if m.running[k] == nil {
		m.running[k] = make(map[int]int)
	}
	m.running[k][idx] += delta
	if m.running[k][idx] <= 0 {
		delete(m.running[k], idx)
		if len(m.running[k]) == 0 {
			delete(m.running, k)
		}
	}
	m.runningMu.Unlock()
}

// Engine is the Muppet 2.0 runtime for one application.
type Engine struct {
	app *core.App
	cfg Config
	clu *cluster.Cluster

	ring     *hashring.Ring // machines
	machines map[string]*machine
	rec      *recovery.Manager
	ing      *ingress.Driver
	// out carries worker emits and fire-and-forget ingests to their
	// owners: synchronously on this node, through a per-destination
	// outbox to machines other nodes host.
	out *engine.Courier

	counters *engine.Counters
	tracker  *engine.Tracker
	sink     *engine.Sink
	lost     *engine.LostLog
	reg      *obs.Registry
	tracer   *obs.Tracer
	queries  *query.Counters
	seq      atomic.Uint64
	watchSeq atomic.Uint64
	stopped  atomic.Bool
	done     chan struct{}
	wg       sync.WaitGroup
	// stopMu serializes Stop against RestartWorkers so a rejoin racing
	// a shutdown can never wg.Add a fresh thread loop while wg.Wait is
	// in progress.
	stopMu sync.Mutex
}

// New builds and starts a Muppet 2.0 engine for a validated app.
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
		app:      app,
		cfg:      cfg,
		clu:      clu,
		machines: make(map[string]*machine),
		counters: engine.NewCounters(),
		tracker:  engine.NewTracker(),
		sink:     engine.NewSink(cfg.OutputCapacity),
		lost:     engine.NewLostLog(0),
		queries:  query.NewCounters(),
		reg:      obs.NewRegistry(),
		tracer:   obs.NewTracer(app.Name(), cfg.Observability),
		done:     make(chan struct{}),
	}
	// The ring spans the full member list — every node derives the same
	// ring from the same names — but runtime state (threads, cache,
	// locks, logs) exists only for the machines this node hosts.
	e.ring = hashring.New(e.clu.MachineNames(), 0)
	// Remote-origin batches are charged to this node's in-flight
	// tracker the moment they land (and credited back if bounced), so
	// Drain covers events handed off by peer nodes.
	e.clu.OnRemoteInflight(func(delta int) { e.tracker.Add(delta) })
	for _, name := range e.clu.LocalNames() {
		m := &machine{
			name:    name,
			running: make(map[fk]map[int]int),
			locks:   newSlateLockTable(),
		}
		if cfg.ReplayLog {
			m.log = wal.New()
		}
		var store slate.Store
		var slateWAL *wal.SlateBatchLog
		if cfg.Store != nil {
			store = &slate.KVStore{Cluster: cfg.Store, Level: cfg.StoreLevel}
			slateWAL = wal.NewSlateBatchLog()
		}
		// The central cache is the sharded store: per-shard locking for
		// the worker threads and group-commit (WAL + multi-put)
		// flushing for the background flusher.
		m.cache = slate.NewSharded(slate.ShardedConfig{
			Shards:        cfg.SlateShards,
			Capacity:      cfg.CacheCapacity,
			Policy:        cfg.FlushPolicy,
			Store:         store,
			WAL:           slateWAL,
			MaxFlushBatch: cfg.FlushBatch,
			WALCheckpoint: true,
			TTLFor:        app.TTLFor,
		})
		for i := 0; i < cfg.ThreadsPerMachine; i++ {
			th := &thread{idx: i}
			th.q.Store(queue.New[engine.Envelope](cfg.QueueCapacity, cfg.QueuePolicy))
			m.threads = append(m.threads, th)
		}
		e.machines[name] = m
		name := name
		e.clu.SetHandler(name, func(worker string, ev event.Event, wait bool) error {
			return e.dispatchLocal(e.machines[name], worker, ev, wait)
		})
		e.clu.SetBatchHandler(name, func(ds []cluster.Delivery) []error {
			return e.dispatchLocalBatch(e.machines[name], ds)
		})
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
	// rejoin broadcasts and owns the whole crash-to-healthy protocol;
	// the engine only reports failed sends through its detector.
	e.rec = recovery.NewManager(recovery.Deps{
		Cluster:   e.clu,
		Adapter:   &recoveryAdapter{e: e},
		Lost:      e.lost,
		Counters:  e.counters,
		Tracker:   e.tracker,
		Store:     e.slateStore(),
		Redeliver: cfg.ReplayLog,
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
		Tracer:         e.tracer,
		Machines:       len(e.clu.MachineNames()),
		Policy:         cfg.QueuePolicy,
		OverflowStream: cfg.OverflowStream,
		SourceThrottle: cfg.SourceThrottle,
	}
	e.registerObs()
	e.start()
	return e, nil
}

// slateStore returns the durable slate adapter, nil without a store.
func (e *Engine) slateStore() slate.Store {
	if e.cfg.Store == nil {
		return nil
	}
	return &slate.KVStore{Cluster: e.cfg.Store, Level: e.cfg.StoreLevel}
}

func (e *Engine) start() {
	for _, m := range e.machines {
		for _, th := range m.threads {
			e.wg.Add(1)
			m.loops.Add(1)
			go e.threadLoop(m, th, th.queue())
		}
		if e.cfg.FlushPolicy == slate.Interval {
			e.wg.Add(1)
			go e.flusherLoop(m)
		}
	}
}

// flusherLoop is the per-machine background I/O thread: it writes
// dirty slates to the durable store so map and update calls never
// block on storage (Section 4.5).
func (e *Engine) flusherLoop(m *machine) {
	defer e.wg.Done()
	ticker := time.NewTicker(e.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-e.done:
			return
		case <-ticker.C:
			if e.tracer != nil {
				t0 := time.Now()
				m.cache.FlushDirty()
				e.tracer.ObserveFlushSettle(time.Since(t0))
			} else {
				m.cache.FlushDirty()
			}
		}
	}
}

// selectThread implements the 2.0 queue-selection rule: follow the
// thread already processing this (function, key) if any, otherwise the
// primary unless it is heavily loaded and the secondary is free to
// take the spill. lenOf reports a thread queue's depth; the per-event
// path reads the live queue, the batch path substitutes a cached view
// so a batch pays the queue-length locks once, not per delivery.
func (e *Engine) selectThread(m *machine, k fk, lenOf func(int) int) int {
	p, s := e.candidates(m, k)
	if e.cfg.DisableDualQueue || s == p {
		return p
	}
	m.runningMu.Lock()
	holders := m.running[k]
	_, onP := holders[p]
	_, onS := holders[s]
	m.runningMu.Unlock()
	switch {
	case onP:
		// The primary thread is processing this key right now:
		// follow it.
		return p
	case onS:
		// The secondary thread is processing this key: follow it.
		return s
	case spill(lenOf(p), lenOf(s), e.cfg.SecondarySpillFactor):
		// Neither thread is on this key and the primary is heavily
		// loaded by other events: balance onto the secondary.
		return s
	}
	return p
}

// dispatchLocal places one delivery on the selected thread queue on
// the receiving machine. The worker argument carries the destination
// function name. wait is false for a worker's own emits, which must
// never wait on a thread queue — the chosen one may be the emitting
// thread's own.
func (e *Engine) dispatchLocal(m *machine, function string, ev event.Event, wait bool) error {
	target := e.selectThread(m, fk{fn: function, key: ev.Key}, func(i int) int {
		return m.threads[i].queue().Len()
	})
	env := engine.Envelope{Func: function, Ev: ev}
	if e.tracer.Sample() {
		env.Ev.TraceEnq = time.Now().UnixNano()
	}
	if m.log != nil {
		// Log before enqueueing so the consumer can acknowledge as
		// soon as it finishes, whatever the interleaving.
		env.WalSeq = m.log.Append(env)
	}
	var err error
	if q := m.threads[target].queue(); wait {
		err = q.Put(env)
	} else {
		err = q.Offer(env)
	}
	if err != nil && m.log != nil {
		// The delivery was rejected; it is accounted by the overflow
		// path, not the replay log.
		m.log.Ack(env.WalSeq)
	}
	return err
}

// dispatchLocalBatch places a whole machine-addressed batch on the
// local thread queues: queue selection runs per delivery (the dual-
// queue rule is per key) against a once-per-batch snapshot of queue
// depths, and the enqueue itself is one PutBatch — one lock
// acquisition — per target thread. The returned slice is parallel to
// ds; nil entries were accepted.
func (e *Engine) dispatchLocalBatch(m *machine, ds []cluster.Delivery) []error {
	sc := m.scratch()
	defer m.release(sc)
	// Queue depths are sampled lazily once and advanced as the batch
	// assigns, instead of taking two queue locks per delivery; the
	// spill heuristic only needs a consistent relative view.
	lenOf := func(i int) int {
		if sc.lens[i] < 0 {
			sc.lens[i] = m.threads[i].queue().Len()
		}
		return sc.lens[i]
	}
	// Pass 1: select a thread per delivery; count per-thread loads so
	// pass 2 can fill exact-size envelope batches (no append-growth
	// copies of the envelope structs).
	for i := range ds {
		t := e.selectThread(m, fk{fn: ds[i].Worker, key: ds[i].Ev.Key}, lenOf)
		sc.targets = append(sc.targets, int32(t))
		sc.counts[t]++
		sc.lens[t]++
	}
	for t, n := range sc.counts {
		if n > 0 && cap(sc.envs[t]) < n {
			sc.envs[t] = make([]engine.Envelope, 0, n)
			sc.idxs[t] = make([]int, 0, n)
		}
	}
	for i := range ds {
		t := sc.targets[i]
		env := engine.Envelope{Func: ds[i].Worker, Ev: ds[i].Ev}
		if e.tracer.Sample() {
			env.Ev.TraceEnq = time.Now().UnixNano()
		}
		if m.log != nil {
			env.WalSeq = m.log.Append(env)
		}
		sc.envs[t] = append(sc.envs[t], env)
		sc.idxs[t] = append(sc.idxs[t], i)
	}
	var errs []error
	for t, envs := range sc.envs {
		if len(envs) == 0 {
			continue
		}
		accepted, err := m.threads[t].queue().PutBatch(envs)
		if err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(ds))
		}
		for _, i := range sc.idxs[t][accepted:] {
			errs[i] = err
		}
		if m.log != nil {
			for _, env := range envs[accepted:] {
				m.log.Ack(env.WalSeq)
			}
		}
	}
	return errs
}

// spill reports whether the primary queue is so much longer than the
// secondary that the event should be placed on the secondary.
func spill(primaryLen, secondaryLen, factor int) bool {
	return primaryLen > factor*secondaryLen+4
}

// candidates returns the primary and secondary thread indexes for a
// (function, key) pair, using two independent hashes. The pair is
// hashed without concatenating it (hashring.HashPair): this runs once
// per delivery on the dispatch hot path, and the concatenation's
// allocation was pure overhead.
func (e *Engine) candidates(m *machine, k fk) (int, int) {
	n := len(m.threads)
	if n == 1 {
		return 0, 0
	}
	h1 := hashring.HashPair(k.fn, 0x00, k.key)
	h2 := hashring.HashPair(k.key, 0x01, k.fn)
	p := int(h1 % uint64(n))
	s := int(h2 % uint64(n))
	if s == p {
		s = (p + 1) % n
	}
	return p, s
}

// threadLoop is one worker thread: take the next event from the
// queue, run the map or update function, update slates, send outputs,
// repeat. The queue is passed explicitly because a machine revival
// installs a fresh queue (and a fresh loop) after a crash closed the
// old one.
func (e *Engine) threadLoop(m *machine, th *thread, q *queue.Queue[engine.Envelope]) {
	defer e.wg.Done()
	defer m.loops.Done()
	// The loop's reusable invocation scratch. Owned by this goroutine
	// alone — a post-crash restart spawns a fresh loop (with fresh
	// scratch) that may briefly overlap the old loop's final
	// invocation, so the emitter cannot live on the shared thread slot.
	var em collectEmitter
	for {
		env, err := q.Get()
		if err != nil {
			return
		}
		// A ring change (failover or rejoin) while the envelope was
		// queued — or while it was being routed — may have moved the
		// key: forward it to the current owner rather than break the
		// single-writer property.
		if e.ring.LookupRoute(env.Func, env.Ev.Key) != m.name {
			if m.log != nil && env.WalSeq != 0 {
				m.log.Ack(env.WalSeq) // handled here by forwarding
			}
			e.out.Deliver(env.Func, env.Ev, engine.FromWorker)
			e.tracker.Dec()
			continue
		}
		k := fk{fn: env.Func, key: env.Ev.Key}
		var sp *obs.Span
		if env.Ev.TraceEnq != 0 {
			sp = e.tracer.Start(env.Ev.Stream, env.Ev.Ingress, env.Ev.TraceEnq)
		}
		m.markRunning(k, th.idx, +1)
		e.process(m, &em, env, sp)
		m.markRunning(k, th.idx, -1)
		e.tracer.Finish(sp)
		if m.log != nil && env.WalSeq != 0 {
			m.log.Ack(env.WalSeq)
		}
		e.counters.Processed.Add(1)
		e.tracker.Dec()
	}
}

func (e *Engine) process(m *machine, em *collectEmitter, env engine.Envelope, sp *obs.Span) {
	f := e.app.Function(env.Func)
	if f == nil {
		return
	}
	em.reset(e.app, env.Func, f.Kind == core.KindUpdate)
	switch f.Kind {
	case core.KindMap:
		f.Mapper.Map(em, env.Ev)
	case core.KindUpdate:
		sk := slate.Key{Updater: env.Func, Key: env.Ev.Key}
		lock := e.acquireSlate(m, sk)
		if f.Codec != nil {
			// Typed updater: hand it the cached decoded object (decoded
			// at most once per cache fill), let it mutate in place, and
			// mark the entry dirty; the bytes are re-encoded once per
			// flush batch or external read, not here. The per-slate lock
			// serializes mutation; the cache pin taken by GetDecoded
			// keeps the concurrent flusher off the object meanwhile.
			// A read error (store failure, undecodable row) falls back
			// to a fresh zero-value slate — the same disposition the
			// byte path gives an always-replacing updater — and is
			// counted in the cache's DecodeErrors.
			v, _ := m.cache.GetDecoded(sk, f.Codec)
			if v == nil {
				v = f.Codec.New()
			}
			f.Updater.(core.DecodedUpdater).UpdateDecoded(em, env.Ev, v)
			m.cache.PutDecoded(sk, v, f.Codec)
			e.counters.SlateUpdates.Add(1)
			e.counters.ObserveLatency(env.Ev)
		} else {
			sl, _ := m.cache.Get(sk)
			f.Updater.Update(em, env.Ev, sl)
			if em.replaced {
				m.cache.Put(sk, em.newSlate)
				e.counters.SlateUpdates.Add(1)
				e.counters.ObserveLatency(env.Ev)
			}
		}
		e.releaseSlate(m, sk, lock)
	}
	sp.MarkExec()
	if len(em.outputs) == 0 {
		return
	}
	// One allocation holds every value this invocation published; the
	// derived events slice it. The emitter's scratch arena cannot be
	// handed out directly — the next invocation on this thread reuses
	// it, while queues, the replay log, and the egress sink retain the
	// events indefinitely.
	var arena []byte
	if len(em.vals) > 0 {
		arena = make([]byte, len(em.vals))
		copy(arena, em.vals)
	}
	for _, out := range em.outputs {
		e.route(e.derive(out, arena, env.Ev), engine.FromWorker)
	}
	sp.MarkEmit()
}

// acquireSlate takes the per-slate lock from the machine's striped
// table, recording how many workers contend for the slate; Muppet
// 2.0's dispatch bounds this at two.
func (e *Engine) acquireSlate(m *machine, sk slate.Key) *slateLock {
	return m.locks.acquire(sk, e.counters.ObserveContention)
}

func (e *Engine) releaseSlate(m *machine, sk slate.Key, l *slateLock) {
	m.locks.release(sk, l)
}

// collectEmitter gathers one invocation's outputs. One emitter lives
// in each worker thread and is reset between invocations: the outputs
// slice and the value scratch arena keep their capacity, so a
// steady-state invocation allocates nothing inside the emitter.
// Published values are copied once, into the arena; process()
// materializes them for the derived events afterwards.
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

// emitted is one published output: its stream and key, and the bounds
// of its value in the emitter's scratch arena.
type emitted struct {
	stream, key string
	off, end    int
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
		panic(fmt.Sprintf("engine2: map function %s called ReplaceSlate", c.function))
	}
	// The slate cache retains the value, so it gets its own allocation
	// (never the reused arena); append to a non-nil empty slice so that
	// an empty slate stays distinct from "no slate" (nil) on the next
	// update call.
	c.newSlate = append([]byte{}, value...)
	c.replaced = true
}

// derive stamps an emitted record into a routable event, slicing its
// value out of the invocation's arena. The three-index slice keeps a
// downstream append from growing into the next output's bytes.
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

// route fans an event out to every subscriber of its stream, on behalf
// of whoever produced it.
func (e *Engine) route(ev event.Event, from engine.Origin) {
	if e.app.IsOutput(ev.Stream) {
		e.sink.Record(ev)
	}
	for _, fn := range e.app.Subscribers(ev.Stream) {
		e.out.Deliver(fn, ev, from)
	}
}

// Ingest feeds one external input event into the application.
func (e *Engine) Ingest(ev event.Event) {
	if !e.app.IsInput(ev.Stream) {
		panic(fmt.Sprintf("engine2: Ingest on non-input stream %s", ev.Stream))
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
// per-event ingress costs (fan-out resolution, cluster sends, queue
// locks) per destination-machine group. It returns the number of
// events whose every subscriber delivery was accepted; when deliveries
// were dropped, the error is a *ingress.BatchError tallying the losses
// by reason (each also recorded in LostEvents). A batch containing a
// non-input stream is rejected whole with *ingress.NotInputError
// before any side effects.
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

// ingressOps adapts the engine to the shared ingress driver: one ring
// routes <function, key> to a machine, and the worker address on that
// machine is the function name itself.
type ingressOps struct {
	e *Engine
}

func (o ingressOps) Stopped() bool                      { return o.e.stopped.Load() }
func (o ingressOps) IsInput(stream string) bool         { return o.e.app.IsInput(stream) }
func (o ingressOps) IsOutput(stream string) bool        { return o.e.app.IsOutput(stream) }
func (o ingressOps) Subscribers(stream string) []string { return o.e.app.Subscribers(stream) }
func (o ingressOps) NextSeq() uint64                    { return o.e.seq.Add(1) }
func (o ingressOps) RecordOutput(ev event.Event)        { o.e.sink.Record(ev) }
func (o ingressOps) FuncOf(worker string) string        { return worker }
func (o ingressOps) Route(fn, key string) (string, string) {
	return o.e.ring.LookupRoute(fn, key), fn
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
// blocking worker threads. buf <= 0 selects the default buffer (256).
// Like Ingest on a non-input stream, subscribing to a stream the
// application does not declare as an output panics — the feed would
// never fire.
func (e *Engine) Subscribe(stream string, buf int) *engine.Subscription {
	if !e.app.IsOutput(stream) {
		panic(fmt.Sprintf("engine2: Subscribe on non-output stream %s", stream))
	}
	return e.sink.Subscribe(stream, buf)
}

// AttachOutput registers a synchronous handler for a declared output
// stream's events — the pluggable egress sink. It panics if the
// stream is not a declared output.
func (e *Engine) AttachOutput(stream string, h engine.OutputHandler) {
	if !e.app.IsOutput(stream) {
		panic(fmt.Sprintf("engine2: AttachOutput on non-output stream %s", stream))
	}
	e.sink.Attach(stream, h)
}

// Drain blocks until every accepted event has been fully processed.
func (e *Engine) Drain() { e.tracker.Wait() }

// Stop drains, halts all threads, flushes dirty slates, and closes
// the cluster transport. It is idempotent.
func (e *Engine) Stop() {
	if e.stopped.Swap(true) {
		return
	}
	e.tracker.Wait()
	e.stopMu.Lock()
	close(e.done)
	for _, m := range e.machines {
		for _, th := range m.threads {
			th.queue().Close()
		}
	}
	e.wg.Wait()
	e.stopMu.Unlock()
	// The workers are gone; let the senders ship what a delivery racing
	// the stop may still have queued, while the transport is open.
	e.out.Close()
	for _, m := range e.machines {
		m.cache.FlushDirty()
	}
	// Close the egress sink last: subscriber channels close only after
	// every in-flight event has been recorded.
	e.sink.Close()
	e.clu.Close()
}

// CrashMachine simulates a machine failure with the stock §4.3
// disposition, via the shared recovery subsystem: queued events and
// unflushed slates on the machine are lost (and logged), the replay
// log is discarded, and flush batches retained in the slate
// group-commit WAL are replayed into the store. Detection is left to
// the next failed send.
func (e *Engine) CrashMachine(name string) (lostQueued, lostDirtySlates int) {
	if e.clu.Machine(name) == nil {
		return 0, 0
	}
	rep := e.rec.Crash(name)
	return rep.QueuedLost, rep.DirtyLost
}

// CrashMachineAndReplay crashes a machine and drives the full
// master-coordinated failover through the recovery subsystem,
// redelivering the machine's unacknowledged deliveries from the replay
// log to the keys' new owners — the replay capability the paper names
// as future work (§4.3). Replay is at-least-once: deliveries that were
// mid-process at crash time are applied again. It panics if ReplayLog
// is not configured. Unflushed slates are still lost (the slate store,
// not the event log, is their durability), but WAL-retained flush
// batches are restored before the new owners read the store.
func (e *Engine) CrashMachineAndReplay(name string) (replayed, lostDirtySlates int) {
	m := e.machines[name]
	if m == nil {
		return 0, 0
	}
	if m.log == nil {
		panic("engine2: CrashMachineAndReplay requires Config.ReplayLog")
	}
	rep := e.rec.CrashAndFailover(name)
	return rep.Redelivered, rep.DirtyLost
}

// RejoinMachine revives a crashed machine through the recovery
// subsystem: worker threads restart on fresh queues, the master
// broadcasts the rejoin, the ring re-enables the machine, and its
// central slate cache is warmed from the durable store (unless
// disabled by Config.Recovery).
func (e *Engine) RejoinMachine(name string) (recovery.RejoinReport, error) {
	return e.rec.Rejoin(name)
}

// RecoveryStatus snapshots the recovery subsystem: per-machine
// liveness and ring membership, failover/rejoin counters, WAL replay
// totals, and the latest incident reports.
func (e *Engine) RecoveryStatus() recovery.Status { return e.rec.Status() }

// Recovery exposes the engine's recovery manager (for latency
// histograms and tests).
func (e *Engine) Recovery() *recovery.Manager { return e.rec }

// recoveryAdapter is the engine's implementation of the recovery
// subsystem's engine-facing surface (recovery.Adapter).
type recoveryAdapter struct {
	e *Engine
}

func (a *recoveryAdapter) RemoveFromRing(machine string) { a.e.ring.Disable(machine) }
func (a *recoveryAdapter) RestoreToRing(machine string)  { a.e.ring.Enable(machine) }

func (a *recoveryAdapter) DrainQueues(machine string, drained func(function string, ev event.Event)) {
	m := a.e.machines[machine]
	if m == nil {
		return
	}
	for _, th := range m.threads {
		// Drain closes the queue atomically, so the machine's thread
		// loops exit immediately instead of consuming a backlog a dead
		// machine could never have processed.
		for _, env := range th.queue().Drain() {
			drained(env.Func, env.Ev)
			a.e.tracker.Dec()
		}
	}
}

func (a *recoveryAdapter) AwaitWorkers(machine string) {
	if m := a.e.machines[machine]; m != nil {
		m.loops.Wait()
	}
}

func (a *recoveryAdapter) CrashSlates(machine string) ([]*wal.SlateBatchLog, int) {
	m := a.e.machines[machine]
	if m == nil {
		return nil, 0
	}
	var wals []*wal.SlateBatchLog
	if s, ok := m.cache.(*slate.Sharded); ok {
		wals = append(wals, s.WAL())
	}
	return wals, m.cache.Crash()
}

func (a *recoveryAdapter) UnackedEvents(machine string) []engine.Envelope {
	m := a.e.machines[machine]
	if m == nil || m.log == nil {
		return nil
	}
	return m.log.Unacked()
}

func (a *recoveryAdapter) Redeliver(function string, ev event.Event) {
	a.e.out.Deliver(function, ev, engine.FromWorker)
}

func (a *recoveryAdapter) RestartWorkers(machine string) {
	m := a.e.machines[machine]
	if m == nil {
		return
	}
	// Under stopMu: Stop cannot begin (or finish) its wg.Wait while
	// fresh loops are being added, and once Stop has swapped stopped we
	// refuse to start any.
	a.e.stopMu.Lock()
	defer a.e.stopMu.Unlock()
	if a.e.stopped.Load() {
		return
	}
	// Updates that were mid-process when the machine died completed
	// against the already-crashed cache and re-inserted their (now
	// dead-lineage) values; drop them so they cannot shadow the store
	// once the ring routes the keys back here.
	for _, k := range m.cache.Keys() {
		m.cache.Delete(k)
	}
	for _, th := range m.threads {
		th.q.Replace(queue.New[engine.Envelope](a.e.cfg.QueueCapacity, a.e.cfg.QueuePolicy))
		a.e.wg.Add(1)
		m.loops.Add(1)
		go a.e.threadLoop(m, th, th.queue())
	}
}

func (a *recoveryAdapter) FlushSlates() { a.e.FlushSlates() }

func (a *recoveryAdapter) DropMisplacedSlates() {
	for name, m := range a.e.machines {
		var misplaced []slate.Key
		for _, k := range m.cache.Keys() {
			if a.e.ring.LookupRoute(k.Updater, k.Key) != name {
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
		if _, err := m.cache.FlushDirty(); err != nil {
			continue
		}
		for _, k := range misplaced {
			m.cache.Delete(k)
		}
	}
}

func (a *recoveryAdapter) WarmSlates(machine string, limit int) int {
	m := a.e.machines[machine]
	if m == nil || a.e.cfg.Store == nil {
		return 0
	}
	// Collect the machine's keys first: the store holds its node lock
	// across the scan callback, so the load-through reads must happen
	// after the scan returns. ScanUntil stops at the warm limit rather
	// than sweeping the whole store.
	var keys []slate.Key
	for _, updater := range a.e.app.Updaters() {
		if len(keys) >= limit {
			break
		}
		a.e.cfg.Store.ScanUntil(updater, func(key string, _ []byte) bool {
			if a.e.ring.LookupRoute(updater, key) == machine {
				k := slate.Key{Updater: updater, Key: key}
				if _, ok := m.cache.Peek(k); !ok {
					keys = append(keys, k)
				}
			}
			return len(keys) < limit
		})
	}
	warmed := 0
	for _, k := range keys {
		// Get loads through from the store and caches the slate clean —
		// exactly the state a warm cache should be in.
		if v, err := m.cache.Get(k); err == nil && v != nil {
			warmed++
		}
	}
	return warmed
}

func (a *recoveryAdapter) RingMembers() map[string]bool { return a.e.ring.Members() }

// MachineFor reports which machine owns <key, fn> on the current
// ring.
func (e *Engine) MachineFor(fn, key string) string {
	return e.ring.LookupRoute(fn, key)
}

// Slate returns the current slate for <updater, key>, reading the
// owning machine's central cache (falling through to the durable
// store on a miss). The HTTP slate-fetch service resolves slates the
// same way. When the owner is hosted by another node, the local read
// falls back to the shared durable store (the authoritative copy lags
// the owner's cache by at most one flush interval); without a store it
// returns nil — query the owning node.
func (e *Engine) Slate(updater, key string) []byte {
	name := e.ring.LookupRoute(updater, key)
	if name == "" {
		return nil
	}
	m := e.machines[name]
	if m == nil {
		if st := e.slateStore(); st != nil {
			v, _, _ := st.Load(slate.Key{Updater: updater, Key: key})
			return v
		}
		return nil
	}
	v, _ := m.cache.Get(slate.Key{Updater: updater, Key: key})
	return v
}

// SlateCached returns the slate only if it is resident in the owning
// machine's cache (no store fallback), with its residency flag. A
// remotely hosted owner has no local cache: (nil, false).
func (e *Engine) SlateCached(updater, key string) ([]byte, bool) {
	name := e.ring.LookupRoute(updater, key)
	if name == "" {
		return nil, false
	}
	m := e.machines[name]
	if m == nil {
		return nil, false
	}
	return m.cache.Peek(slate.Key{Updater: updater, Key: key})
}

// Slates returns all cached slates of an updater merged across
// machines.
func (e *Engine) Slates(updater string) map[string][]byte {
	out := make(map[string][]byte)
	for _, m := range e.machines {
		for _, k := range m.cache.Keys() {
			if k.Updater != updater {
				continue
			}
			if v, ok := m.cache.Peek(k); ok {
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
	for _, m := range e.machines {
		m.cache.FlushDirty()
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

// Counters exposes the live counters.
func (e *Engine) Counters() *engine.Counters { return e.counters }

// Cluster exposes the simulated machine cluster.
func (e *Engine) Cluster() *cluster.Cluster { return e.clu }

// App returns the application this engine runs.
func (e *Engine) App() *core.App { return e.app }

// Updaters returns the application's update function names.
func (e *Engine) Updaters() []string { return e.app.Updaters() }

// CacheStats aggregates central-cache statistics across machines.
func (e *Engine) CacheStats() slate.CacheStats {
	var total slate.CacheStats
	for _, m := range e.machines {
		s := m.cache.Stats()
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

// FlushStats aggregates the central stores' group-commit counters
// across machines (flush rounds, batches, records, failed batches).
func (e *Engine) FlushStats() slate.FlushStats {
	var total slate.FlushStats
	for _, m := range e.machines {
		if s, ok := m.cache.(*slate.Sharded); ok {
			total.Add(s.FlushStats())
		}
	}
	return total
}

// QueueStats returns per-thread queue statistics keyed by
// "machine/thread-index".
func (e *Engine) QueueStats() map[string]queue.Stats {
	out := make(map[string]queue.Stats)
	for name, m := range e.machines {
		for _, th := range m.threads {
			out[fmt.Sprintf("%s/%d", name, th.idx)] = th.stats()
		}
	}
	return out
}

// MachineAccepted returns the number of deliveries accepted per
// machine, the load-balance signal the scaling experiment reports.
func (e *Engine) MachineAccepted() map[string]uint64 {
	out := make(map[string]uint64)
	for name, m := range e.machines {
		var total uint64
		for _, th := range m.threads {
			total += th.stats().Accepted
		}
		out[name] = total
	}
	return out
}

// CacheTotals returns aggregate (store loads, hits, misses) across the
// central caches.
func (e *Engine) CacheTotals() (loads, hits, misses uint64) {
	s := e.CacheStats()
	return s.StoreLoads, s.Hits, s.Misses
}

// StoreSaves returns the total slate writes issued to the durable
// store across all central caches.
func (e *Engine) StoreSaves() uint64 {
	return e.CacheStats().StoreSaves
}

// MaxQueueDepth returns the deepest any thread queue ever got.
func (e *Engine) MaxQueueDepth() int {
	max := 0
	for _, m := range e.machines {
		for _, th := range m.threads {
			if d := th.stats().MaxDepth; d > max {
				max = d
			}
		}
	}
	return max
}

// AcceptedPerQueue returns the accepted-delivery count of every thread
// queue.
func (e *Engine) AcceptedPerQueue() []uint64 {
	var out []uint64
	for _, m := range e.machines {
		for _, th := range m.threads {
			out = append(out, th.stats().Accepted)
		}
	}
	return out
}

// LargestQueues returns the depth of the most loaded queue per
// machine, the figure the paper's status endpoint reports ("the event
// count of the largest event queues").
func (e *Engine) LargestQueues() map[string]int {
	out := make(map[string]int)
	for name, m := range e.machines {
		max := 0
		for _, th := range m.threads {
			if l := th.queue().Len(); l > max {
				max = l
			}
		}
		out[name] = max
	}
	return out
}
