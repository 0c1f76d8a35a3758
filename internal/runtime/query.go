package runtime

import (
	"fmt"
	"time"

	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/query"
	"muppet/internal/slate"
)

// Query answers one relational query over an updater's live slates,
// cluster-wide: the whole σ/π/γ pipeline is pushed to every machine
// the dispatcher's scatter set names (node-locally for machines this
// node hosts, over the cluster's query frame otherwise) and only the
// reduced partials come back to be merged here. Any machine failing
// fails the query — queries are idempotent, so retrying beats a silent
// under-count.
func (r *Runtime) Query(spec query.Spec) (*query.Result, error) {
	start := time.Now()
	machines, err := r.disp.Scatter(spec.Updater)
	if err != nil {
		return nil, err
	}
	co := &query.Coordinator{
		Machines: machines,
		IsLocal:  r.clu.IsLocal,
		Local:    r.queryLocal,
		Remote:   r.clu.Query,
	}
	res, err := co.Run(&spec)
	if err != nil {
		return nil, err
	}
	r.queries.Observe(spec.Kind(), res.Stats, time.Since(start))
	return res, nil
}

// queryLocal runs the node-local pipeline for one hosted machine, one
// pass, nothing materialized: the cache-resident slates of the
// machine's cells stream into the executor first (read as the decoded
// objects they are where the codec allows; see slate.Sharded.Scan for
// what that costs the writers — a copy-out, no more), then the durable
// store's rows the cache did not already answer (cache wins: it holds
// the freshest, possibly unflushed value). Both are filtered to the
// keys the ring currently routes to this machine — ownership filtering
// is what keeps scatter-gather free of duplicates and dead-lineage
// rows. A cached row's ownership costs one ring lookup: the row carries
// its cache entry's memo of the ring hash of <updater, key>
// (slate.CacheRow.Route), and only the hash is kept, never the owner,
// so a ring change shows on the very next row.
//
// The store pass is skipped while the machine's coverage record for the
// updater holds (see coverage): every stored slate the machine owns is
// then resident, so the pass could only skip rows the cache answered.
// The generation is read again after the cache pass; if it moved, that
// answer is dropped and the full path runs. Only a full-range full pass
// that found every owned store row already answered, with the
// generation unchanged from before its cache pass to after its store
// pass, sets the record. A store scan that fails fails the query: the
// rows that did arrive would be a silent under-count. A query that
// skips the store pass cannot fail on the store.
func (r *Runtime) queryLocal(machine string, spec *query.Spec) (*query.NodeResult, error) {
	if !r.clu.IsLocal(machine) {
		return nil, fmt.Errorf("muppet: machine %s is not hosted here", machine)
	}
	f := r.app.Function(spec.Updater)
	if f == nil || f.Kind != core.KindUpdate {
		return nil, fmt.Errorf("muppet: no updater %q", spec.Updater)
	}
	if r.cfg.Store == nil {
		return r.cachePass(machine, spec, f.Codec, query.NoOverlay).Result(), nil
	}
	key := coverKey{machine, spec.Updater}
	g, steady := r.generation(machine)
	if steady && r.cover.covered(key, g) {
		x := r.cachePass(machine, spec, f.Codec, query.NoOverlay)
		if now, _ := r.generation(machine); now == g {
			r.cover.skip(machine)
			return x.Result(), nil
		}
		g, steady = r.generation(machine)
	}
	resident := 0
	for _, c := range r.byMachine[machine] {
		resident += c.Cache.Len()
	}
	x := r.cachePass(machine, spec, f.Codec, resident)
	unanswered := 0
	err := r.cfg.Store.ScanUntil(spec.Updater, func(key string, sv []byte) bool {
		if x.Seen(key) || !spec.KeyInRange(key) {
			return true
		}
		if owner, _ := r.disp.Route(spec.Updater, key); owner == machine {
			unanswered++
			if raw, err := slate.Decode(sv); err == nil {
				x.Raw(key, raw)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if unanswered == 0 && steady && spec.FullRange() {
		if now, _ := r.generation(machine); now == g {
			r.cover.record(key, g)
		}
	}
	return x.Result(), nil
}

// cachePass folds into a fresh executor the machine's cache-resident
// slates of the updater that the ring routes to it; overlay is
// query.Compile's.
func (r *Runtime) cachePass(machine string, spec *query.Spec, codec slate.Codec, overlay int) *query.Executor {
	x := query.Compile(spec, codec, overlay)
	read, n := x.Reader()
	for _, c := range r.byMachine[machine] {
		c.Cache.Scan(spec.Updater, read, n, func(row slate.CacheRow) {
			if spec.KeyInRange(row.Key) && r.owns(c, spec.Updater, row.Route) {
				x.Cached(row)
			}
		})
	}
	return x
}

// QueryWatch starts a continuous query: the spec is re-evaluated on
// flush-epoch cadence (or spec.EveryMS) and the marshaled Result is
// published to a private sink stream whenever the answer changes, so
// watchers ride the same bounded Subscribe machinery as declared
// output streams. The returned stop function ends the watch and
// cancels the subscription; it must be called exactly once.
func (r *Runtime) QueryWatch(spec query.Spec, buf int) (*engine.Subscription, func(), error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	interval := r.cfg.FlushInterval
	if spec.EveryMS > 0 {
		interval = time.Duration(spec.EveryMS) * time.Millisecond
	}
	stream := fmt.Sprintf("_query/%d", r.watchSeq.Add(1))
	sub := r.sink.Subscribe(stream, buf)
	w := &query.Watcher{
		Interval: interval,
		Run:      func() (*query.Result, error) { return r.Query(spec) },
		Emit: func(payload []byte) {
			r.sink.Record(event.Event{
				Stream:  stream,
				Seq:     r.seq.Add(1),
				Key:     spec.Updater,
				Value:   payload,
				Ingress: time.Now().UnixNano(),
			})
		},
	}
	w.Start()
	stop := func() {
		w.Stop()
		sub.Cancel()
	}
	return sub, stop, nil
}
