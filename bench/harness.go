package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"muppet"
	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/workload"
	"muppet/muppetapps"
)

const updater = "U_rep"

// stallTimeout bounds every wait on the system under test, so a wedged
// engine fails the run instead of hanging it.
const stallTimeout = 30 * time.Second

var errStalled = errors.New("bench: system under test stopped completing events")

// pool is the pre-generated source: the program under test receives
// only these events, re-stamped per use.
type pool struct {
	events []event.Event
	// author[i] indexes users for events[i].Key, so the generator-side
	// tally is an array increment, not a map operation.
	author []int32
	users  []string
	hash   uint64
}

func newPool(seed int64, users, n int) *pool {
	g := workload.New(workload.Config{Seed: seed, Users: users, ZipfS: 1.1, RetweetFraction: retweetFraction})
	p := &pool{events: make([]event.Event, n), author: make([]int32, n)}
	index := make(map[string]int32)
	h := fnv.New64a()
	for i := range p.events {
		ev := g.Tweet("S1")
		p.events[i] = ev
		id, ok := index[ev.Key]
		if !ok {
			id = int32(len(p.users))
			index[ev.Key] = id
			p.users = append(p.users, ev.Key)
		}
		p.author[i] = id
		h.Write(ev.Value)
	}
	p.hash = h.Sum64()
	return p
}

// source cycles the pool, re-stamping Seq and TS, and keeps the
// generator-side tally the oracle compares slates against.
type source struct {
	p      *pool
	cursor int
	seq    uint64
	tally  []uint32
}

func newSource(p *pool) *source { return &source{p: p, tally: make([]uint32, len(p.users))} }

// fill writes the next len(dst) events into dst with the given Ingress
// stamp (0 lets the engine stamp arrival time).
func (s *source) fill(dst []event.Event, ingress int64) {
	for i := range dst {
		ev := s.p.events[s.cursor]
		s.seq++
		ev.Seq = s.seq
		ev.TS = event.Timestamp(s.seq)
		ev.Ingress = ingress
		dst[i] = ev
		s.tally[s.p.author[s.cursor]]++
		if s.cursor++; s.cursor == len(s.p.events) {
			s.cursor = 0
		}
	}
}

// unfill reverts the tally for the tail of a batch the engine did not
// accept (never happens at seed; keeps the oracle exact if it does).
func (s *source) unfill(n int) {
	c := s.cursor
	for ; n > 0; n-- {
		if c--; c < 0 {
			c = len(s.p.events) - 1
		}
		s.tally[s.p.author[c]]--
	}
}

// probeState is shared by the probes of every node of one system under
// test: the closed-loop credit counter and the paced rounds' latency
// samples.
type probeState struct {
	done atomic.Int64 // S2 updates completed
	want atomic.Int64 // completion count the generator sleeps for; 0 = not waiting
	wake chan struct{}

	// lat receives now−Ingress per S2 update while recording is on.
	recording atomic.Bool
	latN      atomic.Int64
	lat       []int64

	// app-time accounting, in the traced pass only (rec non-nil).
	rec      *recorder
	updateNs atomic.Int64
	updates  atomic.Int64
}

func newProbeState() *probeState { return &probeState{wake: make(chan struct{}, 1)} }

func (ps *probeState) completed() {
	n := ps.done.Add(1)
	if w := ps.want.Load(); w != 0 && n >= w {
		select {
		case ps.wake <- struct{}{}:
		default:
		}
	}
}

// waitFor blocks until target S2 updates have completed.
func (ps *probeState) waitFor(target int64) error {
	if ps.done.Load() >= target {
		return nil
	}
	timer := time.NewTimer(stallTimeout)
	defer timer.Stop()
	for ps.done.Load() < target {
		ps.want.Store(target)
		if ps.done.Load() >= target {
			break
		}
		select {
		case <-ps.wake:
		case <-timer.C:
			ps.want.Store(0)
			return errStalled
		}
	}
	ps.want.Store(0)
	return nil
}

func (ps *probeState) startRecording(capacity int) {
	if cap(ps.lat) < capacity {
		ps.lat = make([]int64, capacity)
	}
	ps.lat = ps.lat[:capacity]
	ps.latN.Store(0)
	ps.recording.Store(true)
}

// stopRecording returns the samples taken since startRecording. Call it
// only after every offered event has completed.
func (ps *probeState) stopRecording() []int64 {
	ps.recording.Store(false)
	n := int(ps.latN.Load())
	if n > len(ps.lat) {
		n = len(ps.lat)
	}
	return ps.lat[:n]
}

// probe wraps the application's update function from outside the
// program: it forwards every call unchanged and, for the S2 update
// that finishes a source event, counts the completion and (in paced
// rounds) samples the event's latency.
type probe struct {
	inner core.DecodedUpdater
	ps    *probeState
}

func (p *probe) Name() string                { return p.inner.Name() }
func (p *probe) SlateCodec() core.SlateCodec { return p.inner.SlateCodec() }

func (p *probe) Update(emit core.Emitter, in event.Event, sl []byte) {
	p.inner.Update(emit, in, sl)
	p.observe(in)
}

func (p *probe) UpdateDecoded(emit core.Emitter, in event.Event, sl any) {
	if p.ps.rec != nil {
		t0 := time.Now()
		p.inner.UpdateDecoded(emit, in, sl)
		p.ps.appCall(t0, "muppetapps.update", &p.ps.updateNs, &p.ps.updates)
	} else {
		p.inner.UpdateDecoded(emit, in, sl)
	}
	p.observe(in)
}

func (p *probe) observe(in event.Event) {
	if in.Stream != "S2" {
		return
	}
	ps := p.ps
	if ps.recording.Load() {
		if i := ps.latN.Add(1) - 1; int(i) < len(ps.lat) {
			ps.lat[i] = time.Now().UnixNano() - in.Ingress
		}
	}
	ps.completed()
}

// timedMapper is the traced pass's decorator on the app's map function.
type timedMapper struct {
	inner core.Mapper
	ps    *probeState
	ns    atomic.Int64
	calls atomic.Int64
}

func (m *timedMapper) Name() string { return m.inner.Name() }
func (m *timedMapper) Map(emit core.Emitter, in event.Event) {
	t0 := time.Now()
	m.inner.Map(emit, in)
	m.ps.appCall(t0, "muppetapps.map", &m.ns, &m.calls)
}

// appSpanEvery thins the per-call app spans written to the trace; the
// ns/call totals count every call.
const appSpanEvery = 1024

func (ps *probeState) appCall(t0 time.Time, name string, ns, calls *atomic.Int64) {
	t1 := time.Now()
	ns.Add(int64(t1.Sub(t0)))
	if calls.Add(1)%appSpanEvery == 0 {
		ps.rec.add(name, t0, t1)
	}
}

// sut is one constructed system under test.
type sut struct {
	w      *workloadDef
	nodes  []muppet.Engine
	byName map[string]muppet.Engine // TCP workloads: machine name → hosting node
	stores []*muppet.Store
	dir    string
	ps     *probeState
	mapper *timedMapper // traced pass only
	pool   *pool
	src    *source
	rec    *recorder // nil when untraced

	offered  int // source events offered to IngestBatch
	accepted int
	batch    []event.Event
	queries  *queryClient
}

// buildApp returns Example 3's application with the probe swapped in
// for U_rep (and, when traced, the timing decorator for M1).
func (s *sut) buildApp() *muppet.App {
	app := muppetapps.ReputationApp()
	spec := app.Function(updater)
	spec.Updater = &probe{inner: spec.Updater.(core.DecodedUpdater), ps: s.ps}
	if s.rec != nil {
		m := app.Function("M1")
		if s.mapper == nil {
			s.mapper = &timedMapper{inner: m.Mapper, ps: s.ps}
		}
		m.Mapper = s.mapper
	}
	return app
}

func (s *sut) engineConfig(store *muppet.Store) muppet.Config {
	cfg := muppet.Config{
		Engine:            muppet.EngineV2,
		Machines:          s.w.machines,
		ThreadsPerMachine: threadsPerMachine,
		QueueCapacity:     queueCapacity,
		CacheCapacity:     cacheCapacity,
		FlushPolicy:       muppet.FlushInterval,
		FlushEvery:        flushEvery,
		Store:             store,
		StoreLevel:        muppet.One,
		FlushBatch:        s.w.flushBatch,
	}
	if s.rec != nil {
		cfg.Observability = muppet.ObservabilityConfig{Tracing: true, SampleRate: 64}
	}
	return cfg
}

func (s *sut) openStore(sub string) (*muppet.Store, error) {
	if !s.w.durable {
		return nil, nil
	}
	st, err := muppet.OpenStore(muppet.StoreConfig{
		Nodes: 1, ReplicationFactor: 1, NoDevice: true,
		Dir: filepath.Join(s.dir, sub), MemtableFlushBytes: s.w.memtableBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("open store %s: %w", sub, err)
	}
	s.stores = append(s.stores, st)
	return st, nil
}

// reserveAddrs grabs n distinct loopback ports by binding and releasing
// them; the node listeners re-bind the same ports.
func reserveAddrs(n int) ([]string, error) {
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs, nil
}

// newSUT builds the pool, store(s) and engine(s) of a workload and runs
// the warm-up: everything set-up time covers.
func newSUT(w *workloadDef, seed int64, seconds float64, dataRoot string, rec *recorder) (*sut, error) {
	s := &sut{w: w, ps: newProbeState(), rec: rec, batch: make([]event.Event, satBatch)}
	s.ps.rec = rec
	if w.durable {
		if err := os.MkdirAll(dataRoot, 0o755); err != nil {
			return nil, err
		}
		dir, err := os.MkdirTemp(dataRoot, w.name+"-")
		if err != nil {
			return nil, err
		}
		s.dir = dir
	}
	s.pool = newPool(seed, w.users, w.poolFor(seconds))
	s.src = newSource(s.pool)
	if err := s.startEngines(); err != nil {
		s.close()
		return nil, err
	}
	if w.queryMix {
		s.queries = newQueryClient(s)
	}
	if err := s.warmup(int(float64(w.warmupPerSec) * seconds)); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *sut) startEngines() error {
	if s.w.tcpNodes == 0 {
		store, err := s.openStore("store")
		if err != nil {
			return err
		}
		eng, err := muppet.NewEngine(s.buildApp(), s.engineConfig(store))
		if err != nil {
			return err
		}
		s.nodes = append(s.nodes, eng)
		return nil
	}
	// A reserved port can be taken between its release and the node's
	// bind; start over with fresh ports rather than fail the run.
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if err = s.startCluster(); err == nil {
			return nil
		}
		for _, e := range s.nodes {
			e.Stop()
		}
		for _, st := range s.stores {
			st.Close()
		}
		s.nodes, s.stores = nil, nil
	}
	return err
}

// startCluster starts one engine per TCP node on freshly reserved
// loopback ports, each with its own store.
func (s *sut) startCluster() error {
	addrs, err := reserveAddrs(s.w.tcpNodes)
	if err != nil {
		return err
	}
	name := func(i int) string { return fmt.Sprintf("machine-%02d", i) }
	s.byName = make(map[string]muppet.Engine, len(addrs))
	for i := range addrs {
		peers := make(map[string]string, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				peers[name(j)] = a
			}
		}
		store, err := s.openStore(name(i))
		if err != nil {
			return err
		}
		cfg := s.engineConfig(store)
		cfg.Network = &muppet.NetworkConfig{Node: name(i), Listen: addrs[i], Peers: peers}
		eng, err := muppet.NewEngine(s.buildApp(), cfg)
		if err != nil {
			return fmt.Errorf("start %s: %w", name(i), err)
		}
		s.nodes = append(s.nodes, eng)
		s.byName[name(i)] = eng
	}
	return nil
}

// close stops every engine, closes the stores and removes the data
// directory.
func (s *sut) close() {
	if len(s.nodes) > 0 {
		s.drain()
	}
	for _, e := range s.nodes {
		e.Stop()
	}
	for _, st := range s.stores {
		st.Close()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
	}
}

// drain settles the whole system. A node's Drain is node-local and the
// workflow crosses nodes up to three times (S1→M1→S2→U_rep→S3→U_rep),
// so passes repeat until a full pass processes nothing new.
func (s *sut) drain() {
	var last uint64
	for pass := 0; pass < 16; pass++ {
		var total uint64
		for _, e := range s.nodes {
			e.Drain()
		}
		for _, e := range s.nodes {
			total += e.Stats().Processed
		}
		if pass > 0 && total == last {
			return
		}
		last = total
	}
}

// ingest offers a batch to node 0 and books the outcome.
func (s *sut) ingest(batch []event.Event) {
	n, _ := s.nodes[0].IngestBatch(batch)
	s.offered += len(batch)
	s.accepted += n
	if n < len(batch) {
		s.src.unfill(len(batch) - n)
	}
}

// warmup runs n source events through the closed loop, untimed.
func (s *sut) warmup(n int) error {
	for sent := 0; sent < n; sent += satBatch {
		if err := s.ps.waitFor(int64(s.accepted) - satWindow + satBatch); err != nil {
			return err
		}
		s.src.fill(s.batch, 0)
		s.ingest(s.batch)
	}
	if err := s.ps.waitFor(int64(s.accepted)); err != nil {
		return err
	}
	s.drain()
	return nil
}

// satResult is one saturate slice.
type satResult struct {
	events     int
	wall       time.Duration
	cpu        time.Duration
	allocBytes uint64
	// generator accounting: time producing batches, time inside
	// IngestBatch, time blocked on the outstanding window.
	genNs, ingestNs, waitNs int64
}

// saturateBlock runs a system's saturate slices back to back, from one
// collected heap and (on tcp3_query_mix) under one run of the scheduled
// query client, and returns all but the first. The first is the ramp:
// the box needs a second or so of sustained load to spread the runtime's
// threads over its CPUs, and a system a few thousand events old is not
// yet in the state the others are measured in (its store is empty and
// its scans are short: the TCP workloads run it a third faster).
func (s *sut) saturateBlock(slices, n int) ([]satResult, error) {
	runtime.GC()
	if s.queries != nil {
		s.queries.start(false)
		defer s.queries.pause()
	}
	out := make([]satResult, 0, slices)
	for i := 0; i <= slices; i++ {
		r, err := s.saturate(n)
		if err != nil {
			return out, err
		}
		if i > 0 {
			out = append(out, r)
		}
	}
	return out, nil
}

// saturate runs one closed-loop slice of n source events: batches of
// satBatch with at most satWindow outstanding; the slice ends when the
// last offered event's S2 update has completed.
func (s *sut) saturate(n int) (satResult, error) {
	var r satResult
	sp := s.rec.beginScope("round.saturate")
	defer s.rec.end(sp)
	mem0, cpu0, acc0 := readMem(), cpuTime(), s.accepted
	start := time.Now()
	t := start
	for sent := 0; sent < n; sent += satBatch {
		if err := s.ps.waitFor(int64(s.accepted) - satWindow + satBatch); err != nil {
			return r, err
		}
		t1 := time.Now()
		s.src.fill(s.batch, 0)
		t2 := time.Now()
		isp := s.rec.begin("ingress.IngestBatch")
		s.ingest(s.batch)
		s.rec.end(isp)
		t3 := time.Now()
		r.waitNs += int64(t1.Sub(t))
		r.genNs += int64(t2.Sub(t1))
		r.ingestNs += int64(t3.Sub(t2))
		t = t3
	}
	if err := s.ps.waitFor(int64(s.accepted)); err != nil {
		return r, err
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	mem1 := readMem()
	r.allocBytes = mem1.allocBytes - mem0.allocBytes
	r.events = s.accepted - acc0
	return r, nil
}

// pacedResult is one paced round.
type pacedResult struct {
	offered    int
	latMs      []float64 // ascending
	maxLate    time.Duration
	backlogEnd int
	ingestNs   int64
	valid      bool
	cpu        time.Duration
	mallocs    uint64
}

// paced runs one open-loop round at the workload's pinned rate:
// batches of pacedBatch on a fixed schedule, each event's Ingress
// stamped with its scheduled send time so a stall is charged to the
// events it delays.
func (s *sut) paced(d time.Duration) (pacedResult, error) {
	runtime.GC()
	var r pacedResult
	sp := s.rec.beginScope("round.paced")
	defer s.rec.end(sp)
	rate := s.w.pacedRate
	period := time.Duration(float64(pacedBatch) / float64(rate) * float64(time.Second))
	batches := max(1, int(d/period))
	s.ps.startRecording(batches * pacedBatch)
	if s.queries != nil {
		s.queries.start(true)
		defer s.queries.pause()
	}
	batch := s.batch[:pacedBatch]
	acc0 := s.accepted
	mem0, cpu0 := readMem(), cpuTime()
	start := time.Now()
	for k := 0; k < batches; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		t1 := time.Now()
		if late := t1.Sub(due); late > r.maxLate {
			r.maxLate = late
		}
		s.src.fill(batch, due.UnixNano())
		isp := s.rec.begin("ingress.IngestBatch")
		s.ingest(batch)
		s.rec.end(isp)
		r.ingestNs += int64(time.Since(t1))
	}
	r.offered = batches * pacedBatch
	r.backlogEnd = s.accepted - int(s.ps.done.Load())
	err := s.ps.waitFor(int64(s.accepted))
	r.cpu = cpuTime() - cpu0
	r.mallocs = readMem().mallocs - mem0.mallocs
	r.latMs = nsToSortedMs(s.ps.stopRecording())
	// A round that ends with more than one second of offered load still
	// queued was not sustainable at this rate: none of its events count.
	r.valid = err == nil && r.backlogEnd <= rate && s.accepted-acc0 == r.offered
	return r, err
}

// queryClient issues tcp3_query_mix's scheduled reads: a single client
// on a fixed timetable, latencies measured from the scheduled time. Its
// tallies belong to the client goroutine while a round runs and to the
// caller once pause has returned.
type queryClient struct {
	s              *sut
	topkMs         []float64 // paced rounds only
	pointUs        []float64
	issued, failed int
	// stats sums the execution stats of every successful top-k.
	stats   muppet.QueryStats
	statsNs time.Duration
	statsN  int

	stopCh chan struct{}
	wg     sync.WaitGroup
}

func newQueryClient(s *sut) *queryClient { return &queryClient{s: s} }

var topkSpec = muppet.QuerySpec{Updater: updater, Agg: "topk", By: "tweets", K: 10}

// start launches the client for one round; keep selects whether its
// top-k latencies feed query_topk_ms (paced rounds) or only load the
// system (saturate rounds).
func (q *queryClient) start(keep bool) {
	q.stopCh = make(chan struct{})
	q.wg.Add(1)
	go q.run(keep, q.stopCh)
}

func (q *queryClient) pause() {
	close(q.stopCh)
	q.wg.Wait()
}

func (q *queryClient) run(keep bool, stop <-chan struct{}) {
	defer q.wg.Done()
	const perSec = queryTopkPerSec + queryPointPerSec
	const period = time.Second / perSec
	const every = perSec / queryTopkPerSec // one tick in `every` is a top-k
	start := time.Now()
	users := q.s.pool.users
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * period)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-stop:
				return
			case <-time.After(wait):
			}
		} else {
			select {
			case <-stop:
				return
			default:
			}
		}
		if k%every == 0 {
			t0 := time.Now()
			sp := q.s.rec.begin("query.Query")
			res, err := q.s.nodes[0].Query(topkSpec)
			q.s.rec.end(sp)
			if err == nil {
				q.stats.RowsScanned += res.Stats.RowsScanned
				q.stats.WireBytes += res.Stats.WireBytes
				q.statsNs += time.Since(t0)
				q.statsN++
			}
			q.record(&q.topkMs, keep, float64(time.Since(due))/1e6, err)
		} else {
			key := users[(k*7919)%len(users)]
			sp := q.s.rec.begin("query.Slate")
			q.s.pointRead(key)
			q.s.rec.end(sp)
			q.record(&q.pointUs, true, float64(time.Since(due))/1e3, nil)
		}
	}
}

func (q *queryClient) record(dst *[]float64, keep bool, v float64, err error) {
	q.issued++
	if err != nil {
		q.failed++
		return
	}
	if keep {
		*dst = append(*dst, v)
	}
}

// owner is the slice of the concrete engine the harness needs to find
// the node hosting a key.
type owner interface {
	MachineFor(fn, key string) string
}

// pointRead fetches one slate the way the §4.4 HTTP service does: from
// the node whose ring owns the key.
func (s *sut) pointRead(key string) []byte {
	if len(s.nodes) == 1 {
		return s.nodes[0].Slate(updater, key)
	}
	host := s.byName[s.nodes[0].(owner).MachineFor(updater, key)]
	if host == nil {
		return nil
	}
	return host.Slate(updater, key)
}
