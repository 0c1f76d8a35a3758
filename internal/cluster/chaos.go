package cluster

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"
)

// Chaos is the network-layer analog of lsm.MemFS fault injection: a
// deterministic, seeded Transport wrapper that composes over InProc or
// TCP and injects the transient-fault classes the resilience layer
// must survive — dropped requests, dropped responses, duplicated
// deliveries, injected latency, flaky dials, and scripted one-way
// partitions.
//
// Determinism is the point. Every fault decision is a pure function of
// (seed, destination, BatchID, attempt number, fault kind) — a content
// hash, not a draw from a shared RNG stream — so a chaos schedule
// replays identically however the sending goroutines interleave, and a
// failing soak seed can be pinned in a regression test.
//
// Fault classes split by outcome determinism:
//
//   - Determinate faults (flaky dial, dropped request, partition) fail
//     the attempt before the request reaches the inner transport. The
//     batch is provably unapplied, so exhausting the retry budget on
//     them is an exact, accountable loss.
//
//   - Indeterminate faults (dropped response) let the inner transport
//     apply the batch and then lose the answer. These are capped per
//     delivery (MaxFaultsPerDelivery) below the retry budget, so every
//     such batch eventually sees a clean exchange and the receiver's
//     dedup window absorbs the earlier application — which is exactly
//     the at-least-once/exactly-once contract under test.
//
//   - Harmless faults (delay, duplicate) perturb timing and delivery
//     count without affecting the outcome; duplicates must vanish into
//     the dedup window.
type Chaos struct {
	cfg   ChaosConfig
	inner Transport

	mu       sync.Mutex
	attempts map[BatchID]int    // per-delivery attempt counter
	faulted  map[BatchID]int    // per-delivery indeterminate-fault count
	perDest  map[string]*uint64 // per-destination attempt counter (partition clock)

	stats chaosCounters
}

// ChaosConfig scripts the fault schedule. All probabilities are in
// [0, 1] and evaluated independently per attempt.
type ChaosConfig struct {
	// Seed keys every fault decision; the same seed and workload replay
	// the same schedule.
	Seed uint64
	// FlakyDial is the probability an attempt fails before the wire
	// with a transient "chaos-dial" fault (determinate).
	FlakyDial float64
	// DropRequest is the probability the request frame is dropped
	// before reaching the peer (determinate).
	DropRequest float64
	// DropResponse is the probability the peer's answer is dropped
	// after the batch was applied (indeterminate; bounded by
	// MaxFaultsPerDelivery).
	DropResponse float64
	// Duplicate is the probability a successful exchange is re-sent
	// once with the same BatchID (the receiver must absorb it).
	Duplicate float64
	// Delay is the probability an attempt is delayed by a deterministic
	// duration in (0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected latency. Default 2ms.
	MaxDelay time.Duration
	// MaxFaultsPerDelivery caps indeterminate faults injected against
	// one BatchID, so a bounded retry budget always reaches a clean
	// exchange. Must stay below the cluster's retry Attempts. Default 1.
	MaxFaultsPerDelivery int
	// Partitions are scripted one-way outages: attempts addressed to
	// Machine whose per-destination attempt index falls in [From, To)
	// are dropped before the wire (determinate). One-way by
	// construction — the wrapper only sees this node's outbound sends.
	Partitions []Partition
}

// Partition scripts one one-way outage window against one destination.
type Partition struct {
	// Machine is the destination whose inbound requests drop.
	Machine string
	// From and To bound the window in per-destination attempt indexes
	// (0-based, half-open).
	From, To uint64
}

func (cfg *ChaosConfig) fill() {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.MaxFaultsPerDelivery <= 0 {
		cfg.MaxFaultsPerDelivery = 1
	}
}

// ChaosStats counts injected faults by class, so a soak can reconcile
// injected vs surfaced faults exactly.
type ChaosStats struct {
	Attempts       uint64 `metric:"muppet_chaos_attempts_total" help:"Send attempts the chaos layer saw."`
	FlakyDials     uint64 `metric:"muppet_chaos_flaky_dials_total" help:"Determinate pre-wire dial faults injected by chaos."`
	DroppedReqs    uint64 `metric:"muppet_chaos_dropped_requests_total" help:"Request frames dropped by chaos."`
	DroppedResps   uint64 `metric:"muppet_chaos_dropped_responses_total" help:"Response frames dropped by chaos after delivery."`
	Duplicates     uint64 `metric:"muppet_chaos_duplicates_total" help:"Batches duplicated on the wire by chaos."`
	Delays         uint64 `metric:"muppet_chaos_delays_total" help:"Send attempts delayed by chaos."`
	PartitionDrops uint64 `metric:"muppet_chaos_partition_drops_total" help:"Sends dropped by scripted partitions."`
	CleanPasses    uint64 `metric:"muppet_chaos_clean_passes_total" help:"Send attempts chaos forwarded untouched."`
}

// Injected returns the total injected faults (delays and duplicates
// included — every perturbation the schedule produced).
func (s ChaosStats) Injected() uint64 {
	return s.FlakyDials + s.DroppedReqs + s.DroppedResps + s.Duplicates + s.Delays + s.PartitionDrops
}

type chaosCounters struct {
	attempts       atomic.Uint64
	flakyDials     atomic.Uint64
	droppedReqs    atomic.Uint64
	droppedResps   atomic.Uint64
	duplicates     atomic.Uint64
	delays         atomic.Uint64
	partitionDrops atomic.Uint64
	cleanPasses    atomic.Uint64
}

// NewChaos wraps a transport in the seeded fault schedule.
func NewChaos(inner Transport, cfg ChaosConfig) *Chaos {
	cfg.fill()
	return &Chaos{
		cfg:      cfg,
		inner:    inner,
		attempts: make(map[BatchID]int),
		faulted:  make(map[BatchID]int),
		perDest:  make(map[string]*uint64),
	}
}

// Inner returns the wrapped transport, so status surfaces (TCP stats,
// listen address) can reach through the chaos layer.
func (c *Chaos) Inner() Transport { return c.inner }

// Name identifies the transport stack.
func (c *Chaos) Name() string { return "chaos+" + c.inner.Name() }

// Close closes the wrapped transport.
func (c *Chaos) Close() error { return c.inner.Close() }

// ResetPeer forwards to the wrapped transport's redial state, if any.
func (c *Chaos) ResetPeer(machine string) {
	if pr, ok := c.inner.(peerResetter); ok {
		pr.ResetPeer(machine)
	}
}

// Query passes straight through to the wrapped transport: queries are
// idempotent reads with no dedup safety net to exercise, so the fault
// schedule targets only sequenced batch deliveries.
func (c *Chaos) Query(machine string, req []byte) ([]byte, error) {
	qt, ok := c.inner.(QueryTransport)
	if !ok {
		return nil, fmt.Errorf("cluster: transport %s does not carry queries", c.inner.Name())
	}
	return qt.Query(machine, req)
}

// Stats snapshots the injected-fault counters.
func (c *Chaos) Stats() ChaosStats {
	return ChaosStats{
		Attempts:       c.stats.attempts.Load(),
		FlakyDials:     c.stats.flakyDials.Load(),
		DroppedReqs:    c.stats.droppedReqs.Load(),
		DroppedResps:   c.stats.droppedResps.Load(),
		Duplicates:     c.stats.duplicates.Load(),
		Delays:         c.stats.delays.Load(),
		PartitionDrops: c.stats.partitionDrops.Load(),
		CleanPasses:    c.stats.cleanPasses.Load(),
	}
}

// step claims the attempt's bookkeeping: the per-delivery attempt
// index (retries of one BatchID arrive sequentially, so the counter is
// deterministic) and the per-destination partition clock tick.
func (c *Chaos) step(machine string, id BatchID) (attempt int, destTick uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	attempt = c.attempts[id]
	c.attempts[id] = attempt + 1
	tick := c.perDest[machine]
	if tick == nil {
		tick = new(uint64)
		c.perDest[machine] = tick
	}
	destTick = *tick
	*tick++
	return attempt, destTick
}

// allowIndeterminate reports whether another indeterminate fault may
// be charged against id, and charges it.
func (c *Chaos) allowIndeterminate(id BatchID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.faulted[id] >= c.cfg.MaxFaultsPerDelivery {
		return false
	}
	c.faulted[id]++
	return true
}

// settle drops a delivered BatchID's bookkeeping (no more retries will
// arrive for it once the sender saw success).
func (c *Chaos) settle(id BatchID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.attempts, id)
	delete(c.faulted, id)
}

// roll makes one deterministic fault decision. The decision is a
// content hash of the schedule seed and the attempt's identity — never
// a shared RNG draw — so concurrent senders cannot perturb each
// other's schedules. The sender's epoch is deliberately excluded: it
// is wall-clock-derived, and hashing it would make the schedule differ
// run to run under the same seed.
func (c *Chaos) roll(kind string, machine string, id BatchID, attempt int) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s|%s|%d|%d", c.cfg.Seed, kind, machine, id.Sender, id.Seq, attempt)
	// FNV-64a's final multiply diffuses the last input bytes — which
	// are exactly the attempt number — into the hash by at most
	// ~2^48, so without further mixing every retry of a batch would
	// re-roll (within 2^-16) the same number: one dropped request
	// would mean six dropped requests and a guaranteed exhausted
	// budget. Finish with a splitmix64-style finalizer so attempts
	// roll independently.
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// partitioned reports whether the destination's scripted partition
// windows cover this attempt.
func (c *Chaos) partitioned(machine string, destTick uint64) bool {
	for _, p := range c.cfg.Partitions {
		if p.Machine == machine && destTick >= p.From && destTick < p.To {
			return true
		}
	}
	return false
}

// SendBatch runs one attempt through the fault schedule and, if it
// survives the determinate faults, through the wrapped transport.
func (c *Chaos) SendBatch(machine string, id BatchID, ds []Delivery) (int, []BatchReject, error) {
	if !id.sequenced() {
		// Unsequenced traffic has no dedup safety net; pass it through.
		return c.inner.SendBatch(machine, id, ds)
	}
	c.stats.attempts.Add(1)
	attempt, destTick := c.step(machine, id)

	if c.partitioned(machine, destTick) {
		c.stats.partitionDrops.Add(1)
		return 0, nil, transientErr("chaos-partition", nil)
	}
	if c.cfg.Delay > 0 && c.roll("delay", machine, id, attempt) < c.cfg.Delay {
		c.stats.delays.Add(1)
		// Deterministic duration too: reuse the decision hash.
		frac := c.roll("delay-len", machine, id, attempt)
		time.Sleep(time.Duration(frac * float64(c.cfg.MaxDelay)))
	}
	if c.cfg.FlakyDial > 0 && c.roll("dial", machine, id, attempt) < c.cfg.FlakyDial {
		c.stats.flakyDials.Add(1)
		return 0, nil, transientErr("chaos-dial", nil)
	}
	if c.cfg.DropRequest > 0 && c.roll("drop-req", machine, id, attempt) < c.cfg.DropRequest {
		c.stats.droppedReqs.Add(1)
		return 0, nil, transientErr("chaos-drop-request", nil)
	}

	accepted, rejects, err := c.inner.SendBatch(machine, id, ds)
	if err != nil {
		return accepted, rejects, err
	}
	if c.cfg.DropResponse > 0 && c.roll("drop-resp", machine, id, attempt) < c.cfg.DropResponse &&
		c.allowIndeterminate(id) {
		// The batch landed; the answer is lost. The retry will carry the
		// same BatchID and the receiver's dedup window will answer it.
		c.stats.droppedResps.Add(1)
		return 0, nil, transientErrIndet("chaos-drop-response", nil)
	}
	if c.cfg.Duplicate > 0 && c.roll("duplicate", machine, id, attempt) < c.cfg.Duplicate {
		c.stats.duplicates.Add(1)
		c.inner.SendBatch(machine, id, ds)
	} else {
		c.stats.cleanPasses.Add(1)
	}
	c.settle(id)
	return accepted, rejects, nil
}
