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

	// locks is the striped per-slate lock table (one stripe mutex per
	// acquisition instead of a machine-wide one).
	locks *slateLockTable

	// scratchPool recycles batch-dispatch scratch space.
	scratchPool sync.Pool
}

// dispatchScratch is one batch dispatch's working memory: per-thread
// cached queue depths, staged envelopes and their positions in the batch.
// Pooled with its capacity, so steady batched ingest allocates nothing.
type dispatchScratch struct {
	lens []int
	envs [][]engine.Envelope
	idxs [][]int
}

func (m *machine) scratch() *dispatchScratch {
	sc, _ := m.scratchPool.Get().(*dispatchScratch)
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
	for i := range sc.envs {
		sc.envs[i] = sc.envs[i][:0]
		sc.idxs[i] = sc.idxs[i][:0]
	}
	m.scratchPool.Put(sc)
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
			locks:   newSlateLockTable(),
		}
	}
	return e, e.Start(e)
}

// Route implements runtime.Dispatcher: one ring routes <function, key>
// to a machine, and the address on that machine is the function name.
func (e *Engine) Route(fn, key string) (string, string) { return e.ring.LookupRoute(fn, key), fn }

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
		e.process(m, &em, &env, sp)
		m.current[idx].CompareAndSwap(h, 0)
		e.Done(sp)
	}
}

func (e *Engine) process(m *machine, em *runtime.Emitter, env *engine.Envelope, sp *obs.Span) {
	f := e.App().Function(env.Func)
	if f == nil {
		return
	}
	em.Reset(e.App(), env.Func, f.Kind == core.KindUpdate)
	if f.Kind == core.KindUpdate {
		sk := slate.Key{Updater: env.Func, Key: env.Ev.Key}
		// The per-slate lock serializes the two threads dispatch may put
		// on one slate; acquire records how many contend for it.
		lock := m.locks.acquire(sk, e.Counters().ObserveContention)
		obj, raw := m.Load(f, sk)
		em.Run(f, env.Ev, obj, raw)
		e.Commit(m.Cell, f, sk, obj, em, &env.Ev)
		m.locks.release(sk, lock)
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

// SlateCached returns the slate only if it is resident in the owning
// machine's cache (no store fallback), with its residency flag. A
// remotely hosted owner has no local cache: (nil, false).
func (e *Engine) SlateCached(updater, key string) ([]byte, bool) {
	m := e.machines[e.ring.LookupRoute(updater, key)]
	if m == nil {
		return nil, false
	}
	return m.Cache.Peek(slate.Key{Updater: updater, Key: key})
}
