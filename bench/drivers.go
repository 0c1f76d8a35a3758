package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"muppet"
	"muppet/internal/cluster"
	"muppet/internal/core"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/hashring"
	"muppet/internal/httpapi"
	"muppet/internal/kvstore"
	"muppet/internal/lsm"
	"muppet/internal/query"
	"muppet/internal/queue"
	"muppet/internal/slate"
	"muppet/internal/wal"
	"muppet/muppetapps"
)

// The layer drivers (source d of the per-layer table): each calls one
// layer's exported functions directly, from outside, on data derived
// from the same seeded pool, for a small fixed time budget. They are
// independent of the workload under test; every traced invocation runs
// them so its result line carries the whole table.

// timeLoop calls fn until budget has elapsed (at least twice) and
// returns the mean nanoseconds per call.
func timeLoop(budget time.Duration, fn func()) float64 {
	fn() // first call pays one-off costs (pool fills, dials)
	start := time.Now()
	n := 0
	for n < 2 || time.Since(start) < budget {
		fn()
		n++
	}
	return float64(time.Since(start)) / float64(n)
}

type driverEnv struct {
	pool    *pool
	budget  time.Duration
	dataDir string
	codec   core.SlateCodec
	// slates are encoded RepSlates (codec form) keyed like the pool's
	// users: the rows the storage-side drivers move around.
	slates [][]byte
	out    map[string]float64
}

// runLayerDrivers fills the (d) rows of out.
func runLayerDrivers(seed int64, seconds float64, dataRoot string, out map[string]float64) error {
	if err := os.MkdirAll(dataRoot, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(dataRoot, "drivers-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	budget := time.Duration(seconds * float64(10*time.Millisecond))
	budget = min(max(budget, 2*time.Millisecond), 250*time.Millisecond)
	env := &driverEnv{
		pool:    newPool(seed, 100_000, 1<<14),
		budget:  budget,
		dataDir: dir,
		codec:   muppetapps.ReputationApp().Function(updater).Codec,
		out:     out,
	}
	for i := range env.pool.users {
		b, err := env.codec.AppendEncode(nil, &muppetapps.RepSlate{Score: float64(i) * 0.37, Tweets: i})
		if err != nil {
			return err
		}
		env.slates = append(env.slates, b)
	}
	for _, d := range []func() error{
		env.hashringQueueCore, env.slateDrivers, env.storeDrivers, env.lsmDrivers,
		env.clusterDrivers, env.queryDriver, env.httpDrivers, env.recoveryDriver,
	} {
		if err := d(); err != nil {
			return err
		}
	}
	return nil
}

func (d *driverEnv) key(i int) string { return d.pool.users[i%len(d.pool.users)] }

func (d *driverEnv) hashringQueueCore() error {
	ring := hashring.New([]string{"machine-00", "machine-01", "machine-02", "machine-03"}, 0)
	i := 0
	d.out["hashring.lookup_ns"] = timeLoop(d.budget, func() {
		ring.LookupRoute(updater, d.key(i))
		i++
	})

	q := queue.New[engine.Envelope](queueCapacity, queue.Drop)
	envs := make([]engine.Envelope, satBatch)
	for j := range envs {
		envs[j] = engine.Envelope{Func: updater, Ev: d.pool.events[j]}
	}
	var qerr error
	d.out["queue.putbatch_get_ns_per_event"] = timeLoop(d.budget, func() {
		if _, err := q.PutBatch(envs); err != nil {
			qerr = err
		}
		for range envs {
			if _, err := q.Get(); err != nil {
				qerr = err
			}
		}
	}) / satBatch
	if qerr != nil {
		return fmt.Errorf("queue driver: %w", qerr)
	}

	// The single-goroutine baseline and oracle: core.Reference over a
	// slice of the same pool.
	n := min(len(d.pool.events), max(256, int(d.budget/(20*time.Microsecond))))
	ref := core.NewReference(muppetapps.ReputationApp())
	t0 := time.Now()
	if err := ref.Process(d.pool.events[:n]); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	d.out["core.reference_events_per_s"] = float64(n) / time.Since(t0).Seconds()
	return nil
}

func (d *driverEnv) memStore() *slate.KVStore {
	kc := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	return &slate.KVStore{Cluster: kc, Level: kvstore.One}
}

func (d *driverEnv) slateDrivers() error {
	// Hit path: decoded get + put on resident keys.
	hot := slate.NewSharded(slate.ShardedConfig{Capacity: 1 << 20, Policy: slate.Interval})
	const resident = 4096
	for i := 0; i < resident; i++ {
		k := slate.Key{Updater: updater, Key: d.key(i)}
		hot.PutDecoded(k, d.codec.New(), d.codec)
	}
	i := 0
	d.out["slate.getput_decoded_ns"] = timeLoop(d.budget, func() {
		k := slate.Key{Updater: updater, Key: d.key(i % resident)}
		v, _ := hot.GetDecoded(k, d.codec)
		hot.PutDecoded(k, v, d.codec)
		i++
	})

	// Miss path: a 64-slate cache over a store holding every key, so
	// each read is a store load + frame decode + codec decode + clean
	// eviction.
	store := d.memStore()
	recs := make([]slate.BatchRecord, len(d.slates))
	for j, b := range d.slates {
		recs[j] = slate.BatchRecord{K: slate.Key{Updater: updater, Key: d.key(j)}, Value: b}
	}
	if err := store.SaveBatch(recs); err != nil {
		return fmt.Errorf("slate driver: %w", err)
	}
	cold := slate.NewSharded(slate.ShardedConfig{Capacity: 64, Policy: slate.Interval, Store: store})
	i = 0
	var lerr error
	d.out["slate.miss_load_us"] = timeLoop(d.budget, func() {
		if _, err := cold.GetDecoded(slate.Key{Updater: updater, Key: d.key(i)}, d.codec); err != nil {
			lerr = err
		}
		// Release the pin GetDecoded took, without dirtying the entry.
		cold.Delete(slate.Key{Updater: updater, Key: d.key(i)})
		i++
	}) / 1e3
	if lerr != nil {
		return fmt.Errorf("slate miss driver: %w", lerr)
	}

	// At-rest codec: typed encode + storage frame, and back.
	obj, err := d.codec.Decode(d.slates[len(d.slates)/2])
	if err != nil {
		return err
	}
	var buf, framed []byte
	d.out["slate.encode_ns"] = timeLoop(d.budget, func() {
		buf, _ = d.codec.AppendEncode(buf[:0], obj)
		framed = slate.AppendEncode(framed[:0], buf)
	})
	d.out["slate.decode_ns"] = timeLoop(d.budget, func() {
		raw, _ := slate.Decode(framed)
		d.codec.Decode(raw)
	})

	// Group-commit flush: dirty a batch of decoded slates, flush them.
	flushStore := d.memStore()
	fl := slate.NewSharded(slate.ShardedConfig{Capacity: 1 << 20, Policy: slate.Interval, Store: flushStore, WAL: wal.NewSlateBatchLog(), WALCheckpoint: true})
	const dirty = 1024
	var ferr error
	d.out["slate.flushdirty_us_per_record"] = timeLoop(d.budget, func() {
		for j := 0; j < dirty; j++ {
			k := slate.Key{Updater: updater, Key: d.key(j)}
			v, _ := fl.GetDecoded(k, d.codec)
			if v == nil {
				v = d.codec.New()
			}
			fl.PutDecoded(k, v, d.codec)
		}
		if _, err := fl.FlushDirty(); err != nil {
			ferr = err
		}
	}) / dirty / 1e3
	if ferr != nil {
		return fmt.Errorf("slate flush driver: %w", ferr)
	}
	return nil
}

func (d *driverEnv) storeDrivers() error {
	log := wal.NewSlateBatchLog()
	recs := make([]wal.SlateRecord, satBatch)
	for j := range recs {
		recs[j] = wal.SlateRecord{Updater: updater, Key: d.key(j), Value: d.slates[j%len(d.slates)]}
	}
	d.out["wal.appendbatch_ns_per_record"] = timeLoop(d.budget, func() {
		log.AppendBatch(recs)
		log.Truncate()
	}) / satBatch

	kc := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 1, ReplicationFactor: 1})
	entries := make([]kvstore.BatchEntry, satBatch)
	base := 0
	var err error
	d.out["kvstore.putbatch_us_per_row"] = timeLoop(d.budget, func() {
		for j := range entries {
			entries[j] = kvstore.BatchEntry{Key: d.key(base + j), Column: updater, Value: d.slates[(base+j)%len(d.slates)]}
		}
		base += satBatch
		if _, e := kc.PutBatch(entries, kvstore.One); e != nil {
			err = e
		}
	}) / satBatch / 1e3
	if err != nil {
		return fmt.Errorf("kvstore put driver: %w", err)
	}
	i := 0
	d.out["kvstore.get_us"] = timeLoop(d.budget, func() {
		if _, _, _, e := kc.Get(d.key(i%satBatch), updater, kvstore.One); e != nil {
			err = e
		}
		i++
	}) / 1e3
	if err != nil {
		return fmt.Errorf("kvstore get driver: %w", err)
	}
	return nil
}

// lsmDrivers time the storage engine over its in-memory filesystem, so
// the numbers are the engine's own work, not the disk's.
func (d *driverEnv) lsmDrivers() error {
	fs := lsm.NewMemFS()
	opt := lsm.Options{FS: fs, MemtableFlushBytes: 1 << 30, DisableAutoCompact: true, CompactionThreshold: 1 << 30}
	e, err := lsm.Open("/bench", opt)
	if err != nil {
		return err
	}
	row := func(i int) lsm.Row {
		return lsm.Row{Key: d.key(i) + "\x00" + updater, Value: d.slates[i%len(d.slates)], WriteTime: time.Now()}
	}
	next := 0
	var perr error
	put := func(n int) func() {
		rows := make([]lsm.Row, n)
		return func() {
			for j := range rows {
				rows[j] = row(next)
				next++
			}
			if _, err := e.Put(rows); err != nil {
				perr = err
			}
		}
	}
	d.out["lsm.put1_us"] = timeLoop(d.budget, put(1)) / 1e3
	d.out["lsm.put256_us_per_row"] = timeLoop(d.budget, put(satBatch)) / satBatch / 1e3
	if perr != nil {
		e.Close()
		return fmt.Errorf("lsm put driver: %w", perr)
	}
	written := min(next, len(d.pool.users))
	get := func() float64 {
		i := 0
		return timeLoop(d.budget, func() {
			if _, _, _, err := e.Get(d.key(i%written) + "\x00" + updater); err != nil {
				perr = err
			}
			i++
		}) / 1e3
	}
	d.out["lsm.get_mem_us"] = get()
	t0 := time.Now()
	flushed, err := e.Flush()
	if err != nil {
		e.Close()
		return fmt.Errorf("lsm flush driver: %w", err)
	}
	d.out["lsm.flush_ms_per_mib"] = ratio(float64(time.Since(t0))/1e6, float64(flushed)/(1<<20))
	d.out["lsm.get_segment_us"] = get()

	// Three more segments of the same keys, then one full merge.
	for s := 0; s < 3; s++ {
		rows := make([]lsm.Row, written)
		for j := range rows {
			rows[j] = row(j)
		}
		if _, err := e.Put(rows); err != nil {
			perr = err
		}
		if _, err := e.Flush(); err != nil {
			perr = err
		}
	}
	t0 = time.Now()
	read, _, err := e.Compact()
	if err != nil || perr != nil {
		e.Close()
		return fmt.Errorf("lsm compact driver: %v %v", err, perr)
	}
	d.out["lsm.compact_ms_per_mib"] = ratio(float64(time.Since(t0))/1e6, float64(read)/(1<<20))

	// Reopen: leave rows in the WAL so recovery has a log to replay as
	// well as a manifest and a segment to load.
	put(satBatch)()
	if err := e.Close(); err != nil {
		return err
	}
	t0 = time.Now()
	e, err = lsm.Open("/bench", opt)
	if err != nil {
		return fmt.Errorf("lsm reopen driver: %w", err)
	}
	d.out["lsm.reopen_ms"] = float64(time.Since(t0)) / 1e6
	return e.Close()
}

func (d *driverEnv) clusterDrivers() error {
	names := []string{"machine-00", "machine-01"}
	trB, err := cluster.NewTCP(cluster.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		return err
	}
	host := cluster.New(cluster.Config{Names: names, Local: names[1:], Node: names[1], Transport: trB})
	trB.Serve(host)
	defer host.Close()
	host.SetBatchHandler(names[1], func(ds []cluster.Delivery) []error { return nil })
	trA, err := cluster.NewTCP(cluster.TCPConfig{Peers: map[string]string{names[1]: trB.Addr()}})
	if err != nil {
		return err
	}
	a := cluster.New(cluster.Config{Names: names, Local: names[:1], Node: names[0], Transport: trA})
	trA.Serve(a)
	defer a.Close()

	ds := make([]cluster.Delivery, satBatch)
	for i := range ds {
		ds[i] = cluster.Delivery{Worker: updater, Ev: d.pool.events[i], Tag: i}
	}
	var serr error
	send := func(batch []cluster.Delivery) func() {
		return func() {
			if _, _, err := a.SendBatch(names[1], batch); err != nil {
				serr = err
			}
		}
	}
	d.out["cluster.tcp_rtt_us_batch1"] = timeLoop(d.budget, send(ds[:1])) / 1e3
	d.out["cluster.tcp_ns_per_delivery_batch256"] = timeLoop(d.budget, send(ds)) / satBatch
	if serr != nil {
		return fmt.Errorf("cluster driver: %w", serr)
	}
	return nil
}

func (d *driverEnv) queryDriver() error {
	rows := make([]query.InputRow, len(d.slates))
	for i, b := range d.slates {
		rows[i] = query.InputRow{Key: d.key(i), Raw: b}
	}
	spec := topkSpec
	if err := spec.Normalize(); err != nil {
		return err
	}
	d.out["query.execute_us_per_krow"] = timeLoop(d.budget, func() {
		query.Execute(&spec, d.codec, rows)
	}) / 1e3 / (float64(len(rows)) / 1000)
	return nil
}

func (d *driverEnv) httpDrivers() error {
	eng, err := muppet.NewEngine(muppetapps.ReputationApp(), muppet.Config{
		Machines: 1, ThreadsPerMachine: 2, QueueCapacity: queueCapacity,
	})
	if err != nil {
		return err
	}
	defer eng.Stop()
	srv := httptest.NewServer(muppet.Handler(eng))
	defer srv.Close()

	in := make([]httpapi.IngestEvent, satBatch)
	for i := range in {
		ev := d.pool.events[i]
		in[i] = httpapi.IngestEvent{Stream: ev.Stream, TS: int64(ev.TS), Key: ev.Key, Value: string(ev.Value)}
	}
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var herr error
	do := func(req func() (*http.Response, error)) func() {
		return func() {
			resp, err := req()
			if err != nil {
				herr = err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				herr = fmt.Errorf("status %s", resp.Status)
			}
		}
	}
	d.out["httpapi.ingest_post_us_per_event"] = timeLoop(d.budget, do(func() (*http.Response, error) {
		return http.Post(srv.URL+"/ingest", "application/json", bytes.NewReader(body))
	})) / satBatch / 1e3
	eng.Drain()
	url := srv.URL + "/slate/" + updater + "/" + d.pool.events[0].Key
	d.out["httpapi.slate_get_us"] = timeLoop(d.budget, do(func() (*http.Response, error) {
		return http.Get(url)
	})) / 1e3
	if herr != nil {
		return fmt.Errorf("httpapi driver: %w", herr)
	}
	return nil
}

// recoveryDriver crashes and rejoins one of four machines over a
// durable store and reports the recovery subsystem's own timings.
func (d *driverEnv) recoveryDriver() error {
	store, err := muppet.OpenStore(muppet.StoreConfig{
		Nodes: 1, ReplicationFactor: 1, NoDevice: true, Dir: filepath.Join(d.dataDir, "recovery"),
	})
	if err != nil {
		return err
	}
	defer store.Close()
	eng, err := muppet.NewEngine(muppetapps.ReputationApp(), muppet.Config{
		Machines: 4, ThreadsPerMachine: 2, QueueCapacity: queueCapacity,
		FlushPolicy: muppet.FlushInterval, FlushEvery: flushEvery,
		Store: store, StoreLevel: muppet.One,
	})
	if err != nil {
		return err
	}
	defer eng.Stop()
	n := min(len(d.pool.events), max(512, int(d.budget/(10*time.Microsecond))))
	feed := func(evs []event.Event) {
		for len(evs) > 0 {
			m := min(satBatch, len(evs))
			eng.IngestBatch(evs[:m]) // losses to the dead machine are the point
			evs = evs[m:]
		}
		eng.Drain()
	}
	feed(d.pool.events[:n/2])
	const victim = "machine-01"
	eng.Cluster().Crash(victim)
	feed(d.pool.events[n/2 : n]) // the first send to the victim triggers failover
	fo := eng.RecoveryStatus().LastFailover
	if fo == nil || !fo.Detected {
		return fmt.Errorf("recovery driver: crash of %s was not detected", victim)
	}
	d.out["recovery.failover_ms"] = float64(fo.Took) / 1e6
	rep, err := eng.RejoinMachine(victim)
	if err != nil {
		return fmt.Errorf("recovery driver: %w", err)
	}
	d.out["recovery.rejoin_ms"] = float64(rep.Took) / 1e6
	return nil
}
