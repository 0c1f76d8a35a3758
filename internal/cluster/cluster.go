package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"muppet/internal/event"
)

// ErrMachineDown is returned by SendBatch when the destination machine is
// crashed — or, for a machine hosted by another node, when this node
// cannot reach it (failed dial, broken connection) or last knew it to
// be down.
var ErrMachineDown = errors.New("cluster: machine down")

// ErrNoHandler is returned by SendBatch when the destination machine
// has no registered delivery handler.
var ErrNoHandler = errors.New("cluster: no delivery handler registered")

// ErrUnknownMachine is wrapped by the error a send or query to a machine
// that is not a member (or that the answering peer does not host) returns.
var ErrUnknownMachine = errors.New("cluster: unknown machine")

// Delivery is one event addressed to a named worker, carried in a
// batch send. Tag is an opaque caller-side index (the engines use it
// to map per-delivery failures back to the source event of a batch);
// it never crosses a transport. NoWait marks a delivery whose producer
// must not be slowed — a worker's emit: the receiving handler rejects on
// a full queue whatever the overflow policy. One no-wait delivery makes
// its whole frame no-wait. The mark does not cross a transport either:
// DeliverLocal makes every frame from a peer no-wait, whatever its
// deliveries say, so only a source on the queue's own node ever waits
// on it.
type Delivery struct {
	Worker string
	Ev     event.Event
	Tag    int
	NoWait bool
}

// BatchHandler delivers a whole batch addressed to one machine. The
// returned slice is parallel to the input: nil means accepted, a
// non-nil error (typically queue.ErrOverflow or queue.ErrClosed) means
// that delivery was rejected. A nil slice means everything was
// accepted.
type BatchHandler func(ds []Delivery) []error

// QueryHandler answers one query request addressed to a machine this
// node hosts. Request and response are opaque to the cluster layer —
// the query subsystem owns the encoding — and the handler is
// node-level (one per Cluster, receiving the target machine name)
// because query execution reads engine state, not per-machine queues.
type QueryHandler func(machine string, req []byte) ([]byte, error)

// BatchReject is one rejected delivery of a batch send.
type BatchReject struct {
	// Index is the position in the batch passed to SendBatch.
	Index int
	// Err is the local rejection cause.
	Err error
}

// Machine is one cluster member as seen by this node. For a machine
// the node hosts (Local() true) alive is authoritative: Crash and
// Revive flip it. For a machine hosted by another node alive is this
// node's presumption — it starts true, is cleared when a send comes
// back ErrMachineDown, and is restored by Revive during rejoin. Either
// way, sends to a machine presumed down fail fast with ErrMachineDown,
// which is exactly the detect-on-send signal recovery runs on.
type Machine struct {
	name         string
	local        bool
	alive        atomic.Bool
	batchHandler atomic.Value // BatchHandler
}

// Name returns the machine name.
func (m *Machine) Name() string { return m.name }

// Alive reports whether the machine is up — for remote machines,
// whether this node presumes it up.
func (m *Machine) Alive() bool { return m.alive.Load() }

// Local reports whether this node hosts the machine's runtime state.
func (m *Machine) Local() bool { return m.local }

// RetryConfig bounds the sender-side retry loop for transient
// transport faults. Retries apply only to errors classified
// *TransientError (see faults.go); fatal errors — ErrMachineDown, an
// unknown machine, a missing handler — fail immediately. The loop
// itself never waits: the only pause between attempts is the
// transport's own redial window (TCPConfig.RetryBackoff), which a peer
// that does not answer arms and a merely broken connection does not.
type RetryConfig struct {
	// Attempts is the total number of delivery attempts per batch,
	// including the first (default 3). 1 disables retry.
	Attempts int
}

func (rc RetryConfig) withDefaults() RetryConfig {
	if rc.Attempts <= 0 {
		rc.Attempts = 3
	}
	return rc
}

// Config tunes a cluster node.
type Config struct {
	// Machines is the number of hosts, named machine-00, machine-01, ...
	// Ignored when Names is set.
	Machines int
	// Names, when non-empty, is the full member list of the cluster.
	// Every node of a multi-node cluster must be configured with the
	// same member list, because hash rings are derived from it.
	Names []string
	// Local names the machines this node hosts. Nil means all of them
	// (the single-process default).
	Local []string
	// Node names this node as a delivery sender, stamped into every
	// remote batch's BatchID so receivers can deduplicate retries.
	// Defaults to the first local machine name.
	Node string
	// Transport carries sends to machines other nodes host. Required
	// when Local is a proper subset of the members.
	Transport Transport
	// Retry bounds the transient-fault retry loop on remote sends.
	Retry RetryConfig
}

// dedupWindow is how many batches per sender the receiver-side dedup
// window remembers.
const dedupWindow = 4096

// Cluster is one node's view of the cluster: the full member list, the
// machines this node hosts, and the transport to everyone else.
type Cluster struct {
	cfg          Config
	machines     map[string]*Machine
	tr           Transport
	inflight     atomic.Value // func(delta int): remote-origin in-flight hook
	queryHandler atomic.Value // QueryHandler
	closed       atomic.Bool

	node  string // sender identity stamped into BatchIDs
	epoch uint64 // sender incarnation (larger after restart)
	seq   atomic.Uint64
	retry RetryConfig
	dedup *dedupTable

	sends  atomic.Uint64
	recvs  atomic.Uint64 // remote-origin batches delivered locally
	recvDs atomic.Uint64 // deliveries those batches carried

	retries       atomic.Uint64 // re-attempts after a transient fault
	transientErrs atomic.Uint64 // transient faults observed on sends
	exhausted     atomic.Uint64 // batches that ran out of attempts
	dedupHits     atomic.Uint64 // duplicate batches absorbed locally
	indetLost     atomic.Uint64 // events lost with outcome unknown
}

// DeliveryStats counts the work the resilient delivery layer did: how
// often remote sends hit transient faults, how many re-attempts the
// retry loop spent, how many batches exhausted their budget anyway,
// and how many duplicate deliveries the receiver-side window absorbed.
type DeliveryStats struct {
	Sequenced       uint64 `metric:"muppet_transport_sequenced_batches_total" help:"Sequenced remote batches issued (BatchIDs stamped)."`
	TransientErrors uint64 `metric:"muppet_transport_transient_errors_total" help:"Transient transport faults observed on remote sends."`
	Retries         uint64 `metric:"muppet_transport_retries_total" help:"Remote-batch re-attempts after transient transport faults."`
	RetryExhausted  uint64 `metric:"muppet_transport_retry_exhausted_total" help:"Remote batches whose whole retry budget failed."`
	// IndeterminateLost counts events in exhausted batches where at
	// least one attempt failed indeterminately (the request went out
	// whole but no outcome came back): the sender reports these lost,
	// but the receiver may have applied them. This is the exact upper
	// bound on how far the loss log can overcount — every other loss
	// is determinate.
	IndeterminateLost uint64 `metric:"muppet_transport_indeterminate_lost_events_total" help:"Events reported lost on exhausted retries whose outcome is unknown (the receiver may have applied them)."`
	// DedupHits covers retries and chaos duplicates.
	DedupHits    uint64 `metric:"muppet_transport_dedup_hits_total" help:"Duplicate remote-origin batches absorbed by the dedup window."`
	DedupEntries int    `metric:"muppet_transport_dedup_entries" help:"Resident entries in the receiver-side dedup window."`
}

// DeliveryStats reports the node's resilient-delivery counters.
func (c *Cluster) DeliveryStats() DeliveryStats {
	return DeliveryStats{
		Sequenced:         c.seq.Load(),
		TransientErrors:   c.transientErrs.Load(),
		Retries:           c.retries.Load(),
		RetryExhausted:    c.exhausted.Load(),
		DedupHits:         c.dedupHits.Load(),
		IndeterminateLost: c.indetLost.Load(),
		DedupEntries:      c.dedup.size(),
	}
}

// New builds a cluster node. With no Names/Local/Transport it is the
// original single-process simulation: cfg.Machines live machines, all
// local. New panics if the config names remote machines but provides
// no transport to reach them, or if Local names an unknown machine —
// both are wiring bugs, not runtime conditions.
func New(cfg Config) *Cluster {
	names := cfg.Names
	if len(names) == 0 {
		if cfg.Machines <= 0 {
			cfg.Machines = 1
		}
		for i := 0; i < cfg.Machines; i++ {
			names = append(names, fmt.Sprintf("machine-%02d", i))
		}
	}
	localSet := make(map[string]bool, len(names))
	if cfg.Local == nil {
		for _, n := range names {
			localSet[n] = true
		}
	} else {
		for _, n := range cfg.Local {
			localSet[n] = true
		}
	}
	c := &Cluster{
		cfg:      cfg,
		tr:       cfg.Transport,
		machines: make(map[string]*Machine, len(names)),
		retry:    cfg.Retry.withDefaults(),
		epoch:    uint64(time.Now().UnixNano()),
		dedup:    newDedupTable(dedupWindow),
	}
	remote := 0
	for _, name := range names {
		m := &Machine{name: name, local: localSet[name]}
		if !m.local {
			remote++
		}
		m.alive.Store(true)
		c.machines[name] = m
		delete(localSet, name)
	}
	for name := range localSet {
		panic(fmt.Sprintf("cluster: local machine %s is not a member", name))
	}
	if remote > 0 && c.tr == nil {
		panic("cluster: remote machines require a transport")
	}
	c.node = cfg.Node
	if c.node == "" {
		if locals := c.LocalNames(); len(locals) > 0 {
			c.node = locals[0]
		} else {
			c.node = "node"
		}
	}
	return c
}

// Node returns this node's sender identity.
func (c *Cluster) Node() string { return c.node }

// Machine returns the named machine, or nil.
func (c *Cluster) Machine(name string) *Machine { return c.machines[name] }

// MachineNames returns all member names in order, including crashed
// ones and ones hosted by other nodes.
func (c *Cluster) MachineNames() []string {
	var names []string
	for n := range c.machines {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LocalNames returns the names of the machines this node hosts, in
// order.
func (c *Cluster) LocalNames() []string {
	var names []string
	for n, m := range c.machines {
		if m.local {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// IsLocal reports whether this node hosts the named machine. The
// engines use it to decide which side of a send owns the in-flight
// accounting.
func (c *Cluster) IsLocal(name string) bool {
	m := c.machines[name]
	return m != nil && m.local
}

// TransportName identifies the transport in use ("in-process" for the
// default single-node simulation).
func (c *Cluster) TransportName() string {
	if c.tr == nil {
		return "in-process"
	}
	return c.tr.Name()
}

// Transport returns the node's wired transport (nil for the
// single-process default); callers can type-assert to *TCP for
// transport-specific surfaces like Addr and Stats.
func (c *Cluster) Transport() Transport { return c.tr }

// OnRemoteInflight registers the hook called when remote-origin
// deliveries enter (positive delta) or bounce off (negative delta)
// this node. The engines point it at their in-flight tracker so a
// batch handed off by a sender node is accounted here until its
// events are processed.
func (c *Cluster) OnRemoteInflight(fn func(delta int)) {
	c.inflight.Store(fn)
}

// SetBatchHandler registers the batch delivery handler for a machine;
// the engines install one that groups a batch onto local worker queues
// with a single lock acquisition per queue.
func (c *Cluster) SetBatchHandler(machine string, h BatchHandler) {
	if m := c.machines[machine]; m != nil {
		m.batchHandler.Store(h)
	}
}

// SetQueryHandler registers the node's query handler; the engines
// install one that runs the node-local pipeline for the addressed
// machine.
func (c *Cluster) SetQueryHandler(h QueryHandler) {
	c.queryHandler.Store(h)
}

// Query runs one query exchange against the node hosting the machine:
// directly for a machine this node hosts, over the transport's query
// extension otherwise. Queries are idempotent reads, so transient
// transport faults — including indeterminate ones — are retried on the
// same bounded budget as batch sends; a down destination fails fast
// with ErrMachineDown (detect-on-send applies to reads too).
func (c *Cluster) Query(machine string, req []byte) ([]byte, error) {
	m := c.machines[machine]
	if m == nil {
		return nil, fmt.Errorf("%w %s", ErrUnknownMachine, machine)
	}
	if m.local {
		return c.DeliverQuery(machine, req)
	}
	if !m.alive.Load() {
		return nil, ErrMachineDown
	}
	qt, ok := c.tr.(QueryTransport)
	if !ok {
		return nil, fmt.Errorf("cluster: transport %s does not carry queries", c.TransportName())
	}
	var resp []byte
	if _, err := c.withRetry(m, func() (err error) {
		resp, err = qt.Query(machine, req)
		return err
	}); err != nil {
		return nil, err
	}
	return resp, nil
}

// DeliverQuery is the receiving half of a query exchange: it runs the
// node's query handler for a machine this node hosts. A crashed
// machine answers ErrMachineDown — a query must not read state the
// cluster considers dead.
func (c *Cluster) DeliverQuery(machine string, req []byte) ([]byte, error) {
	m := c.machines[machine]
	if m == nil || !m.local {
		return nil, fmt.Errorf("cluster: machine %s is not hosted here", machine)
	}
	if !m.alive.Load() {
		return nil, ErrMachineDown
	}
	h, _ := c.queryHandler.Load().(QueryHandler)
	if h == nil {
		return nil, ErrNoHandler
	}
	return h(machine, req)
}

// SendBatch delivers a batch of events — a single event is a batch of
// one; there is no other way to a machine — in one network exchange: one
// liveness check and one counted send, however many deliveries it
// carries. It fails the whole batch with ErrMachineDown if the
// destination is crashed (or, for a remotely hosted machine, presumed
// down, or unreachable once the transient-fault retry budget is spent —
// the failure-detection signal of Section 4.3) and with ErrNoHandler if
// it has no BatchHandler; otherwise it returns the accepted count plus
// the individually rejected deliveries (full or closed local queues).
func (c *Cluster) SendBatch(machine string, ds []Delivery) (accepted int, rejects []BatchReject, err error) {
	m := c.machines[machine]
	if m == nil {
		return 0, nil, fmt.Errorf("%w %s", ErrUnknownMachine, machine)
	}
	if len(ds) == 0 {
		return 0, nil, nil
	}
	c.sends.Add(1)
	if m.local {
		return c.deliverBatch(m, ds)
	}
	return c.sendRemote(m, ds)
}

// sendRemote drives the retry loop for one remote batch. The batch is
// stamped with a fresh BatchID once; every attempt reuses it, so the
// receiving node's dedup window collapses retries whose earlier
// attempt did land (a lost response, a chaos duplicate) into a single
// application.
func (c *Cluster) sendRemote(m *Machine, ds []Delivery) (int, []BatchReject, error) {
	if !m.alive.Load() {
		return 0, nil, ErrMachineDown
	}
	id := BatchID{Sender: c.node, Epoch: c.epoch, Seq: c.seq.Add(1)}
	var (
		accepted int
		rejects  []BatchReject
	)
	indeterminate, err := c.withRetry(m, func() (err error) {
		accepted, rejects, err = c.tr.SendBatch(m.name, id, ds)
		return err
	})
	if err != nil {
		if indeterminate {
			// Some attempt got a whole request out without an answer: the
			// caller will count these events lost, but the receiver may
			// have applied them. Track the overcount bound exactly.
			c.indetLost.Add(uint64(len(ds)))
		}
		return 0, nil, err
	}
	return accepted, rejects, nil
}

// withRetry runs one exchange with m on the node's retry budget. Only
// transient faults are retried, at once: a broken connection redials on
// the next attempt, and a peer that did not answer has armed the
// transport's redial window, inside which the remaining attempts fail
// fast. A machine declared down meanwhile (by the recovery detector or
// a concurrent fatal send) fails the rest fast too. A fatal
// answer — the peer reporting its machine crashed — records the down
// presumption and fails at once, preserving detect-on-send. On a spent
// budget, indeterminate reports whether some attempt got a whole
// request out without an answer.
func (c *Cluster) withRetry(m *Machine, attempt func() error) (indeterminate bool, err error) {
	for i := 0; i < c.retry.Attempts; i++ {
		if i > 0 {
			c.retries.Add(1)
			if !m.alive.Load() {
				return false, ErrMachineDown
			}
		}
		if err = attempt(); err == nil {
			return false, nil
		}
		if !IsTransient(err) {
			if errors.Is(err, ErrMachineDown) {
				m.alive.Store(false)
			}
			return false, err
		}
		c.transientErrs.Add(1)
		indeterminate = indeterminate || IsIndeterminate(err)
	}
	c.exhausted.Add(1)
	return indeterminate, err
}

// deliverBatch runs the local delivery path for a batch: one liveness
// check, then the machine's batch handler.
func (c *Cluster) deliverBatch(m *Machine, ds []Delivery) (accepted int, rejects []BatchReject, err error) {
	if !m.alive.Load() {
		return 0, nil, ErrMachineDown
	}
	bh, _ := m.batchHandler.Load().(BatchHandler)
	if bh == nil {
		return 0, nil, ErrNoHandler
	}
	errs := bh(ds)
	if errs == nil {
		return len(ds), nil, nil
	}
	for i, e := range errs {
		if e == nil {
			accepted++
		} else {
			rejects = append(rejects, BatchReject{Index: i, Err: e})
		}
	}
	return accepted, rejects, nil
}

// DeliverLocal is the receiving half of a transport: it delivers a
// remote-origin batch to a machine this node hosts, with the same
// return contract as SendBatch. Sequenced batches (id.Seq != 0) are
// deduplicated first — a batch already applied under the same BatchID
// returns its original outcome without touching a queue, which is what
// turns the wire's at-least-once retries into exactly-once at the
// queue boundary. The dedup check runs before the remote-inflight hook
// so absorbed duplicates are never charged. For the batch that does
// land, the hook is charged for every delivery and bounced deliveries
// (rejects, or the whole batch on error) are credited back, so the
// hosting engine's in-flight tracker covers exactly the events that
// landed.
//
// Every frame is no-wait, whatever its deliveries claim: a full queue
// rejects it rather than parking this node's serving goroutine, and the
// duplicates waiting on its dedup entry, behind a worker that may itself
// wait on the sender's node — the cross-node form of the §4.3/§5
// throttling deadlock.
func (c *Cluster) DeliverLocal(machine string, id BatchID, ds []Delivery) (accepted int, rejects []BatchReject, err error) {
	m := c.machines[machine]
	if m == nil || !m.local {
		return 0, nil, fmt.Errorf("cluster: machine %s is not hosted here", machine)
	}
	if len(ds) == 0 {
		return 0, nil, nil
	}
	var entry *dedupEntry
	if id.sequenced() {
		e, dup := c.dedup.begin(id)
		if dup {
			c.dedupHits.Add(1)
			return e.wait()
		}
		entry = e
	}
	ds[0].NoWait = true // makes the whole frame no-wait
	c.recvs.Add(1)
	c.recvDs.Add(uint64(len(ds)))
	hook, _ := c.inflight.Load().(func(int))
	if hook != nil {
		hook(len(ds))
	}
	accepted, rejects, err = c.deliverBatch(m, ds)
	if hook != nil && len(ds)-accepted > 0 {
		hook(-(len(ds) - accepted))
	}
	if entry != nil {
		entry.commit(accepted, rejects, err)
	}
	return accepted, rejects, err
}

// Crash takes a machine down. For a local machine its queues' contents
// are the engine's problem — exactly as in the paper, they are lost.
// For a remotely hosted machine this only records the presumption
// locally; the hosting node crashes it for real.
func (c *Cluster) Crash(machine string) {
	if m := c.machines[machine]; m != nil {
		m.alive.Store(false)
	}
}

// Revive brings a crashed machine back up — for a remote machine, it
// clears this node's down-presumption and resets the transport's
// redial backoff so the next send probes it immediately.
func (c *Cluster) Revive(machine string) {
	m := c.machines[machine]
	if m == nil {
		return
	}
	m.alive.Store(true)
	if !m.local {
		if pr, ok := c.tr.(peerResetter); ok {
			pr.ResetPeer(machine)
		}
	}
}

// Close shuts the transport down (idempotently). The engines call it
// from Stop; on the default transportless single-node cluster it is a
// no-op.
func (c *Cluster) Close() error {
	if c.closed.Swap(true) {
		return nil
	}
	if c.tr != nil {
		return c.tr.Close()
	}
	return nil
}

// Sends reports the number of machine-addressed sends (local and
// remote) this node has issued; a batch is one send.
func (c *Cluster) Sends() uint64 { return c.sends.Load() }

// Recvs reports the number of remote-origin batches (DeliverLocal
// calls that were not absorbed as duplicates) this node has accepted
// from its transport, and RecvDeliveries the deliveries they carried.
func (c *Cluster) Recvs() uint64          { return c.recvs.Load() }
func (c *Cluster) RecvDeliveries() uint64 { return c.recvDs.Load() }
