package engine1

import (
	"fmt"
	"sort"

	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/hashring"
	"muppet/internal/queue"
	"muppet/internal/runtime"
	"muppet/internal/slate"
)

// Config tunes an engine; Muppet 1.0 reads WorkersPerFunction on top of
// the runtime's knobs, and CacheCapacity is per worker.
type Config = runtime.Config

// taskRequest is what crosses from the conductor to the task processor:
// the event and, for an update, the slate it starts from (Cell.Load).
type taskRequest struct {
	ev       event.Event
	slateIn  []byte
	slateObj any
}

// worker is one conductor/task-processor pair bound to a single
// function: a runtime cell (one queue, a private slate cache) whose
// address is the worker ID.
type worker struct {
	*runtime.Cell
	fn *core.FunctionSpec
}

// Engine is Muppet 1.0: the shared runtime dispatching to dedicated
// workers per function.
type Engine struct {
	runtime.Runtime

	rings map[string]*hashring.Ring // function -> ring over its worker IDs
	// workers holds the conductor/task-processor pairs this node runs —
	// only workers assigned to locally hosted machines. workerMachine
	// and workerFn cover EVERY worker of the cluster (the assignment is
	// deterministic, so all nodes agree); ring updates and routing must
	// consult them, never workers, for a worker another node hosts.
	workers       map[string]*worker
	workerMachine map[string]string
	workerFn      map[string]string
}

// New builds and starts a Muppet 1.0 engine for a validated app.
func New(app *core.App, cfg Config) (*Engine, error) {
	if cfg.WorkersPerFunction <= 0 {
		cfg.WorkersPerFunction = max(cfg.Machines, 1)
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 10_000
	}
	if cfg.SlateShards <= 0 {
		// 1.0 workers are single-threaded, so a few stripes suffice; what
		// they share with 2.0 is the group-commit flush path, not lock
		// spreading.
		cfg.SlateShards = 4
	}
	e := &Engine{
		rings:         make(map[string]*hashring.Ring),
		workers:       make(map[string]*worker),
		workerMachine: make(map[string]string),
		workerFn:      make(map[string]string),
	}
	if err := e.Init(app, cfg); err != nil {
		return nil, err
	}
	// Worker placement — fn#i on machines[i % n] over the sorted member
	// list — is deterministic, so every node of a multi-node cluster
	// derives the same assignment and the same per-function rings. A
	// cell is built only for workers on locally hosted machines.
	machines := e.Cluster().MachineNames()
	for _, f := range app.Functions() {
		var ids []string
		for i := 0; i < cfg.WorkersPerFunction; i++ {
			id := fmt.Sprintf("%s#%d", f.Name(), i)
			machine := machines[i%len(machines)]
			e.workerMachine[id] = machine
			e.workerFn[id] = f.Name()
			ids = append(ids, id)
			if e.Cluster().IsLocal(machine) {
				e.workers[id] = &worker{Cell: e.AddCell(machine, id, 1), fn: f}
			}
		}
		e.rings[f.Name()] = hashring.New(ids, 0)
	}
	return e, e.Start(e)
}

// Route implements runtime.Dispatcher: <function, key> routes on the
// function's own ring to a worker ID, the address on that worker's
// machine.
func (e *Engine) Route(fn, key string) (string, string) {
	return e.RouteOf(fn, hashring.Hash(key))
}

// RouteHash implements runtime.Dispatcher: each function has a ring of
// its own, so the position is the key's alone.
func (e *Engine) RouteHash(_, key string) uint64 { return hashring.Hash(key) }

// RouteOf implements runtime.Dispatcher.
func (e *Engine) RouteOf(fn string, h uint64) (string, string) {
	ring := e.rings[fn]
	if ring == nil {
		return "", ""
	}
	wid := ring.LookupHash(h)
	if wid == "" {
		return "", ""
	}
	return e.workerMachine[wid], wid
}

// FuncOf implements runtime.Dispatcher.
func (e *Engine) FuncOf(address string) string {
	if fn, ok := e.workerFn[address]; ok {
		return fn
	}
	return address
}

// EnqueueBatch implements runtime.Dispatcher: one enqueue — one lock
// acquisition — per addressed worker, non-waiting for a no-wait frame.
func (e *Engine) EnqueueBatch(_ string, ds []cluster.Delivery) []error {
	byWorker := make(map[string][]int, 4)
	noWait := false
	for i := range ds {
		byWorker[ds[i].Worker] = append(byWorker[ds[i].Worker], i)
		noWait = noWait || ds[i].NoWait
	}
	var errs []error
	for wid, idxs := range byWorker {
		w := e.workers[wid]
		var n int
		var err error
		if w == nil {
			err = fmt.Errorf("engine1: unknown worker %s", wid)
		} else {
			envs := make([]engine.Envelope, len(idxs))
			for j, i := range idxs {
				envs[j] = engine.Envelope{Func: w.fn.Name(), Ev: ds[i].Ev}
				e.Stamp(&envs[j].Ev)
			}
			if q := w.Queues[0].Queue(); noWait {
				n, err = q.OfferBatch(envs)
			} else {
				n, err = q.PutBatch(envs)
			}
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

// SetRing implements runtime.Dispatcher. It walks workerMachine, not
// workers: ring membership must flip for workers any node hosts.
func (e *Engine) SetRing(machine string, enabled bool) {
	for wid, wm := range e.workerMachine {
		switch {
		case wm != machine:
		case enabled:
			e.rings[e.workerFn[wid]].Enable(wid)
		default:
			e.rings[e.workerFn[wid]].Disable(wid)
		}
	}
}

// RingMembers implements runtime.Dispatcher: a machine is in the ring
// while any of its workers is enabled on its function's ring.
func (e *Engine) RingMembers() map[string]bool {
	out := make(map[string]bool)
	for wid, wm := range e.workerMachine {
		enabled := !e.rings[e.workerFn[wid]].Disabled(wid)
		out[wm] = out[wm] || enabled
	}
	return out
}

// Scatter implements runtime.Dispatcher: keys are owned per worker on
// per-function rings, so a query reaches every machine hosting an
// enabled worker of the updater.
func (e *Engine) Scatter(updater string) ([]string, error) {
	ring := e.rings[updater]
	if ring == nil {
		return nil, fmt.Errorf("engine1: no updater %q", updater)
	}
	seen := make(map[string]bool)
	var machines []string
	for _, wid := range ring.Nodes() {
		if m := e.workerMachine[wid]; !seen[m] {
			seen[m] = true
			machines = append(machines, m)
		}
	}
	sort.Strings(machines)
	return machines, nil
}

// StartCell implements runtime.Dispatcher: a fresh conductor/
// task-processor pair over the worker's current queue. The queue and
// channel pair are passed to the loops explicitly so a machine revival
// can install fresh ones without racing the retiring pair.
func (e *Engine) StartCell(c *runtime.Cell) {
	w, q := e.workers[c.Address], c.Queues[0].Queue()
	req := make(chan taskRequest)
	resp := make(chan *runtime.Emitter)
	e.Go(c, func() { e.conductorLoop(w, q, req, resp) })
	e.Go(c, func() { e.taskProcessorLoop(w, req, resp) })
}

// conductorLoop is the Perl-conductor half of a 1.0 worker: it owns
// the queue, the slate cache, and all event logistics.
func (e *Engine) conductorLoop(w *worker, q *queue.Queue[engine.Envelope], req chan taskRequest, resp chan *runtime.Emitter) {
	fn, isUpdate := w.fn.Name(), w.fn.Kind == core.KindUpdate
	for {
		env, err := q.Get()
		if err != nil {
			close(req)
			return
		}
		ev := &env.Ev
		// A ring change (failover or rejoin) while the event was queued
		// may have moved the key to another worker; forward it rather
		// than break the single-writer property.
		if e.rings[fn].Lookup(ev.Key) != w.Address {
			e.Forward(fn, *ev)
			continue
		}
		sp := e.Begin(ev)
		r := taskRequest{ev: *ev}
		sk := slate.Key{Updater: fn, Key: ev.Key}
		if isUpdate {
			r.slateObj, r.slateIn = w.Load(w.fn, sk)
		}
		// The 1.0 design pays an IPC hop here: event and slate (the
		// decoded object for a typed updater, bytes otherwise) cross to
		// the task-processor process and back. The strict
		// request/response alternation is what lets the conductor read
		// the processor's emitter: it is done routing before the next
		// request resets it.
		req <- r
		em := <-resp
		if isUpdate {
			e.Commit(w.Cell, 0, w.fn, sk, r.slateObj, em, ev)
		}
		e.Emit(em, ev, sp)
		e.Done(sp)
	}
}

// taskProcessorLoop is the JVM half: it only runs the map or update
// code, into the one emitter it owns and reuses.
func (e *Engine) taskProcessorLoop(w *worker, req chan taskRequest, resp chan *runtime.Emitter) {
	var em runtime.Emitter
	for r := range req {
		em.Reset(e.App(), w.fn.Name(), w.fn.Kind == core.KindUpdate)
		em.Run(w.fn, r.ev, r.slateObj, r.slateIn)
		resp <- &em
	}
}

// CacheStats aggregates slate-cache statistics across the workers of
// one updater — the per-updater breakdown only disparate caches have.
func (e *Engine) CacheStats(updater string) slate.CacheStats {
	var total slate.CacheStats
	for _, w := range e.workers {
		if w.fn.Name() == updater {
			total.Add(w.Cache.Stats())
		}
	}
	return total
}
