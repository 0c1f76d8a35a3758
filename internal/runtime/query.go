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
// rows. A store scan that fails fails the query: the rows that did
// arrive would be a silent under-count.
func (r *Runtime) queryLocal(machine string, spec *query.Spec) (*query.NodeResult, error) {
	if !r.clu.IsLocal(machine) {
		return nil, fmt.Errorf("muppet: machine %s is not hosted here", machine)
	}
	f := r.app.Function(spec.Updater)
	if f == nil || f.Kind != core.KindUpdate {
		return nil, fmt.Errorf("muppet: no updater %q", spec.Updater)
	}
	x := query.Compile(spec, f.Codec, r.cfg.Store != nil)
	read, n := x.Reader()
	for _, c := range r.byMachine[machine] {
		c.Cache.Scan(spec.Updater, read, n, func(row slate.CacheRow) {
			if spec.KeyInRange(row.Key) && r.owns(c, spec.Updater, row.Key) {
				x.Cached(row)
			}
		})
	}
	if r.cfg.Store != nil {
		err := r.cfg.Store.ScanUntil(spec.Updater, func(key string, sv []byte) bool {
			if x.Seen(key) || !spec.KeyInRange(key) {
				return true
			}
			if owner, _ := r.disp.Route(spec.Updater, key); owner == machine {
				if raw, err := slate.Decode(sv); err == nil {
					x.Raw(key, raw)
				}
			}
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return x.Result(), nil
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
