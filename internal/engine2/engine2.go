package engine2

import (
	"sync"
	"sync/atomic"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/hashring"
	"muppet/internal/obs"
	"muppet/internal/queue"
	"muppet/internal/runtime"
	"muppet/internal/slate"
)

// Config tunes an engine; Muppet 2.0 reads ThreadsPerMachine and
// DisableDualQueue on top of the runtime's knobs.
type Config = runtime.Config

// fk is the (function, key) pair dispatch decisions are made on.
type fk struct {
	fn  string
	key string
}

// slateLock serializes updates to the slates that share it and counts
// the workers holding or waiting for it (the contention the paper
// bounds at 2).
type slateLock struct {
	mu     sync.Mutex
	owners atomic.Int32
}

// acquire blocks until the calling worker holds l, reporting the owner
// count (holders plus waiters) it observed to observe.
func (l *slateLock) acquire(observe func(int32)) {
	if n := l.owners.Add(1); observe != nil {
		observe(n)
	}
	l.mu.Lock()
}

func (l *slateLock) release() {
	l.mu.Unlock()
	l.owners.Add(-1)
}

// lockStripeBits sets how many locks the keys of one set of candidate
// threads are spread over (a power of two), so two threads running
// different keys of the same pair rarely share one.
const lockStripeBits = 5

// machine is a hosted machine's thread pool: the runtime cell (its
// central slate cache and one queue per thread) plus what dispatch and
// execution need on top.
type machine struct {
	*runtime.Cell

	// current holds, per thread, the dispatchHash of the (function, key)
	// it is processing, 0 when idle: the "follow the thread already
	// processing this key" rule (Section 4.5) is two atomic loads. A
	// hash collision can only pick one of the key's own two candidates.
	current []atomic.Uint64

	// locks is the machine's slate-lock table, fixed at its birth: one
	// lock per set of threads a key can run on — its two candidates, or
	// under DisableDualQueue its primary alone — and per stripe of its
	// dispatchHash (Engine.slateLock).
	locks []slateLock

	// spare holds the batch-dispatch scratch not in use, under
	// spareMu. A scratch keeps the capacity its slices grew to for as
	// long as the machine lives, up to spareEnvelopes; a sync.Pool would
	// drop it at every other GC, and each new one regrow from nothing.
	spareMu sync.Mutex
	spare   []*dispatchScratch
}

// spareEnvelopes is the most envelopes a spare dispatch scratch keeps
// room for: a larger one (a bulk ingest's) is left to the GC rather
// than kept for the machine's life.
const spareEnvelopes = 1024

// dispatchScratch is one batch dispatch's working memory: per-thread
// cached queue depths, staged envelopes and their positions in the batch.
// Kept with its capacity, so steady batched ingest allocates nothing.
type dispatchScratch struct {
	lens []int
	envs [][]engine.Envelope
	idxs [][]int
}

func (m *machine) scratch() *dispatchScratch {
	var sc *dispatchScratch
	m.spareMu.Lock()
	if n := len(m.spare); n > 0 {
		sc, m.spare = m.spare[n-1], m.spare[:n-1]
	}
	m.spareMu.Unlock()
	if sc == nil {
		sc = &dispatchScratch{
			lens: make([]int, len(m.Queues)),
			envs: make([][]engine.Envelope, len(m.Queues)),
			idxs: make([][]int, len(m.Queues)),
		}
	}
	for i := range sc.lens {
		sc.lens[i] = -1
	}
	return sc
}

func (m *machine) release(sc *dispatchScratch) {
	room := 0
	for i := range sc.envs {
		clear(sc.envs[i]) // a kept envelope must not keep its frame alive
		sc.envs[i] = sc.envs[i][:0]
		sc.idxs[i] = sc.idxs[i][:0]
		room += cap(sc.envs[i])
	}
	if room > spareEnvelopes {
		return
	}
	m.spareMu.Lock()
	m.spare = append(m.spare, sc)
	m.spareMu.Unlock()
}

// Engine is Muppet 2.0: the shared runtime dispatching into one thread
// pool per hosted machine.
type Engine struct {
	runtime.Runtime

	ring     *hashring.Ring // machines
	machines map[string]*machine
	// singleQueue is Config.DisableDualQueue.
	singleQueue bool
}

// New builds and starts a Muppet 2.0 engine for a validated app.
func New(app *core.App, cfg Config) (*Engine, error) {
	if cfg.ThreadsPerMachine <= 0 {
		cfg.ThreadsPerMachine = 4
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 100_000
	}
	e := &Engine{machines: make(map[string]*machine), singleQueue: cfg.DisableDualQueue}
	if err := e.Init(app, cfg); err != nil {
		return nil, err
	}
	// The ring spans the full member list — every node derives the same
	// ring from the same names — but a thread pool exists only for the
	// machines this node hosts.
	e.ring = hashring.New(e.Cluster().MachineNames(), 0)
	for _, name := range e.Cluster().LocalNames() {
		e.machines[name] = &machine{
			Cell:    e.AddCell(name, "", cfg.ThreadsPerMachine),
			current: make([]atomic.Uint64, cfg.ThreadsPerMachine),
			locks:   make([]slateLock, cfg.ThreadsPerMachine*(cfg.ThreadsPerMachine+1)/2<<lockStripeBits),
		}
	}
	return e, e.Start(e)
}

// Route implements runtime.Dispatcher: one ring routes <function, key>
// to a machine, and the address on that machine is the function name.
func (e *Engine) Route(fn, key string) (string, string) { return e.ring.LookupRoute(fn, key), fn }

// RouteHash implements runtime.Dispatcher: the ring position of the
// <function, key> pair, as LookupRoute hashes it.
func (e *Engine) RouteHash(fn, key string) uint64 { return hashring.HashPair(fn, 0x00, key) }

// RouteOf implements runtime.Dispatcher.
func (e *Engine) RouteOf(fn string, h uint64) (string, string) { return e.ring.LookupHash(h), fn }

// FuncOf implements runtime.Dispatcher.
func (e *Engine) FuncOf(address string) string { return address }

// EnqueueBatch implements runtime.Dispatcher.
func (e *Engine) EnqueueBatch(machine string, ds []cluster.Delivery) []error {
	return e.dispatch(e.machines[machine], ds)
}

// SetRing implements runtime.Dispatcher.
func (e *Engine) SetRing(machine string, enabled bool) {
	if enabled {
		e.ring.Enable(machine)
	} else {
		e.ring.Disable(machine)
	}
}

// RingMembers implements runtime.Dispatcher.
func (e *Engine) RingMembers() map[string]bool { return e.ring.Members() }

// Scatter implements runtime.Dispatcher: every live ring member may own
// keys of any updater.
func (e *Engine) Scatter(string) ([]string, error) { return e.ring.Nodes(), nil }

// StartCell implements runtime.Dispatcher: one thread loop per queue.
func (e *Engine) StartCell(c *runtime.Cell) {
	m := e.machines[c.Machine]
	for i := range c.Queues {
		i, q := i, c.Queues[i].Queue()
		e.Go(c, func() { e.threadLoop(m, i, q) })
	}
}

// selectThread implements the 2.0 queue-selection rule: follow the
// thread already processing this (function, key) if any, otherwise the
// primary unless it is heavily loaded and the secondary is free to
// take the spill. Queue depths come from sc's view of the frame —
// sampled lazily once, advanced by dispatch as it assigns — so a frame
// pays the queue-length locks once, not per delivery; the spill
// heuristic only needs a consistent relative view.
func (e *Engine) selectThread(m *machine, k fk, sc *dispatchScratch) int {
	p, s, h := e.candidates(m, k)
	if e.singleQueue || s == p {
		return p
	}
	switch {
	case m.current[p].Load() == h:
		// The primary thread is processing this key right now:
		// follow it.
		return p
	case m.current[s].Load() == h:
		// The secondary thread is processing this key: follow it.
		return s
	case spill(m.depth(sc, p), m.depth(sc, s)):
		// Neither thread is on this key and the primary is heavily
		// loaded by other events: balance onto the secondary.
		return s
	}
	return p
}

// depth is queue i's depth in sc's view of the frame, live without one.
func (m *machine) depth(sc *dispatchScratch, i int) int {
	if sc == nil {
		return m.Queues[i].Queue().Len()
	}
	if sc.lens[i] < 0 {
		sc.lens[i] = m.Queues[i].Queue().Len()
	}
	return sc.lens[i]
}

// envelope wraps a delivery for a thread queue, stamped for the tracer.
func (e *Engine) envelope(d *cluster.Delivery) engine.Envelope {
	env := engine.Envelope{Func: d.Worker, Ev: d.Ev}
	e.Stamp(&env.Ev)
	return env
}

// enqueue offers envs to thread queue t under one lock acquisition,
// non-waiting for a no-wait frame; the overflow path accounts the
// rejected.
func (m *machine) enqueue(t int, envs []engine.Envelope, noWait bool) (accepted int, err error) {
	q := m.Queues[t].Queue()
	if noWait {
		return q.OfferBatch(envs)
	}
	return q.PutBatch(envs)
}

// dispatch places a machine-addressed frame — a single emit is a frame
// of one — on the local thread queues: queue selection runs per delivery
// (the dual-queue rule is per key), the enqueue is one lock acquisition
// per target thread, non-waiting if the frame is marked no-wait (a
// worker's emit: the chosen queue may be the emitter's own). The result
// is parallel to ds; nil entries were accepted.
func (e *Engine) dispatch(m *machine, ds []cluster.Delivery) []error {
	if len(ds) == 1 {
		// Nothing to group by thread: no scratch, live queue depths.
		t := e.selectThread(m, fk{fn: ds[0].Worker, key: ds[0].Ev.Key}, nil)
		one := [1]engine.Envelope{e.envelope(&ds[0])}
		if _, err := m.enqueue(t, one[:], ds[0].NoWait); err != nil {
			return []error{err}
		}
		return nil
	}
	sc := m.scratch()
	defer m.release(sc)
	noWait := false
	for i := range ds {
		t := e.selectThread(m, fk{fn: ds[i].Worker, key: ds[i].Ev.Key}, sc)
		sc.lens[t]++
		noWait = noWait || ds[i].NoWait
		sc.envs[t] = append(sc.envs[t], e.envelope(&ds[i]))
		sc.idxs[t] = append(sc.idxs[t], i)
	}
	var errs []error
	for t, envs := range sc.envs {
		if len(envs) == 0 {
			continue
		}
		accepted, err := m.enqueue(t, envs, noWait)
		if err == nil {
			continue
		}
		if errs == nil {
			errs = make([]error, len(ds))
		}
		for _, i := range sc.idxs[t][accepted:] {
			errs[i] = err
		}
	}
	return errs
}

// spill reports whether the primary queue is so much longer than the
// secondary that the event should be placed on the secondary.
func spill(primaryLen, secondaryLen int) bool {
	return primaryLen > 2*secondaryLen+4
}

// dispatchHash picks a (function, key)'s primary thread and marks the
// pair in the current slot of a thread running it. HashPair hashes the
// pair without concatenating it: no allocation on the hot path.
func dispatchHash(k fk) uint64 { return hashring.HashPair(k.fn, 0x00, k.key) }

// candidates returns the primary and secondary thread indexes for a
// (function, key) pair, using two independent hashes, and the pair's
// dispatchHash.
func (e *Engine) candidates(m *machine, k fk) (p, s int, h uint64) {
	h = dispatchHash(k)
	n := len(m.Queues)
	if n == 1 {
		return 0, 0, h
	}
	p = int(h % uint64(n))
	s = int(hashring.HashPair(k.key, 0x01, k.fn) % uint64(n))
	if s == p {
		s = (p + 1) % n
	}
	return p, s, h
}

// slateLock returns the lock serializing updates of k: the lock of the
// set of threads dispatch may run k on, {p, s} or {p}, and of its
// dispatchHash's stripe. Only the threads of that set ever take it, so
// at most two workers hold or wait for a slate's lock by construction,
// and one with the single queue. It is an index computation: no table
// lock, no map, nothing allocated.
func (e *Engine) slateLock(m *machine, k fk) *slateLock {
	p, s, h := e.candidates(m, k)
	if e.singleQueue {
		s = p
	}
	p, s = min(p, s), max(p, s)
	return &m.locks[(s*(s+1)/2+p)<<lockStripeBits|int(h>>(64-lockStripeBits))]
}

// threadLoop is one worker thread: take the next event from the
// queue, run the map or update function, update slates, send outputs,
// repeat. The queue is passed explicitly because a machine revival
// installs a fresh queue (and a fresh loop) after a crash closed the
// old one.
func (e *Engine) threadLoop(m *machine, idx int, q *queue.Queue[engine.Envelope]) {
	// The loop's reusable invocation scratch. Owned by this goroutine
	// alone — a post-crash restart spawns a fresh loop (with fresh
	// scratch) that may briefly overlap the old loop's final
	// invocation, so the emitter cannot live on the shared machine.
	var em runtime.Emitter
	for {
		env, err := q.Get()
		if err != nil {
			return
		}
		// A ring change (failover or rejoin) while the envelope was
		// queued — or while it was being routed — may have moved the
		// key: forward it to the current owner rather than break the
		// single-writer property.
		if e.ring.LookupRoute(env.Func, env.Ev.Key) != m.Machine {
			e.Forward(env.Func, env.Ev)
			continue
		}
		// The compare-and-swap leaves a newer mark alone: a revived
		// loop overlapping this one's last invocation owns the slot.
		h := dispatchHash(fk{fn: env.Func, key: env.Ev.Key})
		sp := e.Begin(&env.Ev)
		m.current[idx].Store(h)
		e.process(m, &em, idx, &env, sp)
		m.current[idx].CompareAndSwap(h, 0)
		e.Done(sp)
	}
}

// process runs one envelope on thread idx.
func (e *Engine) process(m *machine, em *runtime.Emitter, idx int, env *engine.Envelope, sp *obs.Span) {
	f := e.App().Function(env.Func)
	if f == nil {
		return
	}
	em.Reset(e.App(), env.Func, f.Kind == core.KindUpdate)
	if f.Kind == core.KindUpdate {
		sk := slate.Key{Updater: env.Func, Key: env.Ev.Key}
		// The per-slate lock serializes the two threads dispatch may put
		// on one slate; acquire records how many contend for it.
		lock := e.slateLock(m, fk{fn: env.Func, key: env.Ev.Key})
		lock.acquire(e.Counters().ObserveContention)
		obj, raw := m.Load(f, sk)
		em.Run(f, env.Ev, obj, raw)
		e.Commit(m.Cell, idx, f, sk, obj, em, &env.Ev)
		lock.release()
	} else {
		em.Run(f, env.Ev, nil, nil)
	}
	e.Emit(em, &env.Ev, sp)
}

// MachineFor reports which machine owns <key, fn> on the current
// ring.
func (e *Engine) MachineFor(fn, key string) string {
	return e.ring.LookupRoute(fn, key)
}
