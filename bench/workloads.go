package main

import "time"

// The four workloads. Names are the contract every later PR is judged
// with: do not rename. Each one moves the majority of the work into a
// different set of layers, so a change to one layer has a workload that
// exercises it and workloads that bypass it (where the prediction is
// "no change").
//
// Rates and counts are pinned constants, never derived from a run: a
// benchmark that searches for its own operating point measures the
// search. Every count is given per second of --seconds, so one argument
// scales a run. satPerSec is sized so the timed saturate slices take
// about 0.3 of --seconds on the 2-vCPU reference box; pacedRate is
// ≈ 20–25 % of the saturated throughput measured there in its quiet
// state, so the load stays sustainable when the box loses half its CPU.
type workloadDef struct {
	name string
	why  string

	// tcpNodes > 0 runs that many muppet.NewEngine nodes in this
	// process joined over real loopback TCP (one machine each);
	// 0 runs one engine with `machines` simulated machines.
	tcpNodes int
	machines int
	// durable gives every node one on-disk LSM (Nodes 1, RF 1).
	durable bool
	// users is the generator's Zipf population.
	users int
	// flushBatch and memtableBytes override the slates per group-commit
	// multi-put (default 256) and the LSM memtable size that triggers a
	// segment write (default 4 MiB); zero keeps the default.
	flushBatch    int
	memtableBytes int64

	// pool is the most tweets a system pre-generates and cycles; a
	// system that will offer fewer events generates only those (poolFor).
	pool int

	// pacedRate is the open-loop offered rate in events/s.
	pacedRate int
	// slices and rounds are the timed saturate slices and the paced
	// rounds per system: four slices of 0.4 s and four rounds of a
	// second, except where the scheduled query client runs — its three
	// scans a second each cost tens of ms on every node, so a sub-second
	// round holds two or three of them by chance and its numbers swing by
	// a quarter; a slice of 1.2 s holds four and a round of two seconds
	// six, give or take one.
	slices, rounds int
	// satPerSec and warmupPerSec are the source events of all timed
	// saturate slices together (each system runs one more, untimed, as
	// its ramp), and of one system's warm-up (which runs inside set-up),
	// per second of --seconds.
	satPerSec, warmupPerSec int
	// queryMix runs the scheduled query client through every measured
	// round.
	queryMix bool
}

const (
	// Every run builds `systems` fresh systems one after another and
	// measures on each the workload's `slices` saturate slices back to
	// back, then its `rounds` paced rounds; every timing is a quantile of
	// systems×slices or systems×rounds samples. The reference box's
	// disturbances last from a fraction of a second to minutes, and a
	// good-side quantile over samples spread across the run discards the
	// shorter ones. Fresh systems serve two purposes: setup_s gets
	// `systems` samples, and the events one system ever sees stay pinned
	// far below the point where Example 3's score feedback loop (B gains
	// 0.1×(1+score A) per retweet, and hot users retweet each other)
	// overflows float64 — after which the slate no longer encodes as JSON
	// and reads go stale.
	systems = 3

	// retweetFraction is the generator's share of retweets. At its
	// default of 0.2 the scores of a 100k-user Zipf population reach
	// +Inf after ≈ 1.8 M events; at 0.05 after ≈ 4.5 M, five times what
	// one system is fed at --seconds 20.
	retweetFraction = 0.05

	// poolSize is the pool of every workload but the churn one.
	poolSize = 1 << 18

	threadsPerMachine = 2
	queueCapacity     = 1 << 16
	// cacheCapacity holds every slate of every workload: no workload
	// evicts (see inproc_durable_churn for why).
	cacheCapacity = 1 << 20
	flushEvery    = 100 * time.Millisecond

	// satWindow bounds the source events outstanding in a saturate
	// round. With queueCapacity 1<<16 and at most satWindow×(1 map +
	// 1 update + ≤1 delta) deliveries in flight no queue can overflow,
	// so any lost event is a real failure.
	satWindow  = 4096
	satBatch   = 256
	pacedBatch = 64
	// pacedShare of --seconds is spent in paced rounds: the gated
	// timings (latency_p50_ms, cpu_us_per_event) and allocs_per_event are
	// taken there. The saturate slices, ramps included, fill most of the
	// rest.
	pacedShare = 0.6

	// After each system's final drain the top-k query runs back to back:
	// at least minQueriesPerSystem times, then until queryPhaseBudget is
	// spent or maxQueriesPerSystem is reached (42 per run where a scan
	// takes under 70 ms; 9 on the churn workload's 75 k-row store).
	minQueriesPerSystem = 3
	maxQueriesPerSystem = 14
	queryPhaseBudget    = time.Second

	// The scheduled query client of tcp3_query_mix.
	queryTopkPerSec  = 3
	queryPointPerSec = 30
)

var workloads = []workloadDef{
	{
		name:     "inproc_hot",
		why:      "framework hot path only (ingress plan, ring, queue, dispatch, exec, emit, cache hit); no store, no wire",
		machines: 4, slices: 4, rounds: 4,
		users: 100_000, pool: poolSize,
		pacedRate: 45_000,
		// The warm-up is one full pool cycle at --seconds 20, so every
		// key is cache-resident before the first measured slice.
		satPerSec: 48_000, warmupPerSec: poolSize/20 + 1,
	},
	{
		name:     "inproc_durable_churn",
		why:      "2 M-user Zipf, 75 k distinct keys in a system's 390 k tweets over an on-disk LSM: one lookup in five is a cache miss and a store read, and the flusher group-commits every new slate",
		machines: 4, slices: 4, rounds: 4, durable: true,
		// The caches hold every key on purpose: with FlushInterval and a
		// cache that evicts, the flusher marks an entry clean before its
		// multi-put lands, so an eviction + reload inside that window
		// reads the older row and loses the updates in between (seen as
		// Tweets one or two short of the tally on ~40 of 56 k users with
		// 1000-slate caches). FlushOnEvict avoids the race but issues
		// one fsync per miss and measures the disk (12 k events/s ± 15 %).
		// The churn here is key churn: 75 k distinct keys in a system's
		// pool, each one's first lookup a miss and a store read.
		// The pool is twice the others': a system is offered 390 k events,
		// and one that wrapped its pool would meet only resident keys from
		// then on.
		users: 2_000_000, pool: 2 * poolSize,
		// One LSM serves all four machines here and holds its only mutex
		// across every WAL fsync and segment write, while a fifth of the
		// lookups wait on that mutex for a store read. At the defaults
		// that is ≈ 600 fsyncs and one 40 ms segment write a second, and
		// the round times follow the disk (p50 1.0 → 2.1 ms and −25 %
		// throughput in the box's slow-disk episodes). 4096-slate
		// commits and a memtable that outlives a system keep the store's
		// CPU work in the measurement and most of the disk's latency out;
		// segment reads, flushes and merges are timed by the lsm drivers.
		flushBatch: 4096, memtableBytes: 64 << 20,
		pacedRate: 25_000,
		satPerSec: 32_000, warmupPerSec: 1_000,
	},
	{
		name:     "tcp3_durable_zipf",
		why:      "ROADMAP north-star row: three nodes over loopback TCP with a durable store each; frame encode, per-emit sends, dedup and response wait dominate",
		tcpNodes: 3, slices: 4, rounds: 4, durable: true,
		users: 100_000, pool: poolSize,
		pacedRate: 6_000,
		satPerSec: 8_000, warmupPerSec: 330,
	},
	{
		name:     "tcp3_query_mix",
		why:      "same cluster with scheduled top-k scans and point reads beside the writes: cache, store and transport shared by reads and writes",
		tcpNodes: 3, slices: 2, rounds: 2, durable: true,
		users: 100_000, pool: poolSize,
		pacedRate: 6_000,
		satPerSec: 8_700, warmupPerSec: 330,
		queryMix: true,
	},
}

// poolFor is the pool length of one system at the given --seconds: every
// event the system will offer, up to the workload's pool. A run too
// short to wrap the full pool never reads its tail, so it need not be
// generated.
func (w *workloadDef) poolFor(seconds float64) int {
	sat := float64(w.satPerSec) * float64(w.slices+1) / float64(w.slices) // + the ramp slice
	perSystem := float64(w.warmupPerSec) + (sat+float64(w.pacedRate)*pacedShare)/systems
	return min(w.pool, max(4096, int(perSystem*seconds)+satBatch))
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
