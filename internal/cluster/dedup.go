package cluster

import (
	"strings"
	"sync"
)

// Receiver-side delivery deduplication. Retried batches (and chaos
// duplicates) arrive carrying the same BatchID; the hosting node must
// apply each sequenced batch to its queues exactly once, and answer
// every duplicate with the original outcome — at-least-once on the
// wire, exactly-once at the queue boundary. The window is keyed by
// sender identity: each sender's recent sequence numbers map to the
// cached delivery outcome, with entries beyond the window evicted (a
// retry never lags thousands of batches behind; the window only needs
// to out-live the sender's bounded retry horizon).

// dedupEntry caches one sequenced batch's delivery outcome. It is
// guarded by its table's mutex. A duplicate racing the original waits on
// the table's condition until done, instead of re-applying.
type dedupEntry struct {
	tab      *dedupTable
	seq      uint64
	done     bool
	waiters  int // duplicates waiting for done
	accepted int
	rejects  []BatchReject
	err      error
}

// senderWindow is one sender's recent delivery history: a ring of the
// last window sequence numbers, seq at seq%window. A slot's entry is
// live if its seq is at least low; every sequence number below low has
// been evicted. An evicted entry is reused for the seq that takes its
// slot, so a steady stream of batches allocates no entries, and the
// ring fills from blocks of dedupBlock entries (spare), so a filling
// window allocates once per block.
type senderWindow struct {
	epoch  uint64
	low    uint64
	maxSeq uint64
	ring   []*dedupEntry
	spare  []dedupEntry
}

const dedupBlock = 64

// dedupTable is a cluster node's per-sender dedup state.
type dedupTable struct {
	mu      sync.Mutex
	settled sync.Cond // signalled when an entry's outcome is committed
	window  uint64
	senders map[string]*senderWindow
}

func newDedupTable(window int) *dedupTable {
	t := &dedupTable{
		window:  uint64(window),
		senders: make(map[string]*senderWindow),
	}
	t.settled.L = &t.mu
	return t
}

// begin claims the right to apply the batch identified by id. It
// returns (entry, false) when the caller must apply the batch and
// commit the outcome into entry, and (entry, true) when the batch is a
// duplicate — the caller takes the cached outcome from entry.wait. A
// nil entry means the batch must be applied without caching: a stale
// epoch (a previous incarnation of the sender), or a sequence number
// already below the window.
func (t *dedupTable) begin(id BatchID) (*dedupEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sw := t.senders[id.Sender]
	if sw == nil || sw.epoch < id.Epoch {
		// First contact with this sender incarnation: any previous
		// incarnation's window is stale (its seq counter restarted), so
		// it is dropped whole. The sender's name may alias a frame; the
		// table keeps its own copy.
		sw = &senderWindow{epoch: id.Epoch, ring: make([]*dedupEntry, t.window)}
		t.senders[strings.Clone(id.Sender)] = sw
	}
	if id.Epoch < sw.epoch || id.Seq < sw.low {
		return nil, false
	}
	slot := &sw.ring[id.Seq%t.window]
	e := *slot
	if e != nil && e.seq == id.Seq {
		e.waiters++
		return e, true
	}
	if id.Seq > sw.maxSeq {
		sw.maxSeq = id.Seq
		if sw.maxSeq >= t.window {
			sw.low = sw.maxSeq - t.window + 1
		}
	}
	// The slot holds nothing or an evicted seq's entry. That entry is
	// reused unless its batch is still being applied or a duplicate
	// still has to read its outcome.
	if e == nil || !e.done || e.waiters > 0 {
		if len(sw.spare) == 0 {
			sw.spare = make([]dedupEntry, dedupBlock)
		}
		e, sw.spare = &sw.spare[0], sw.spare[1:]
		*slot = e
	}
	*e = dedupEntry{tab: t, seq: id.Seq}
	return e, false
}

// commit records the applied batch's outcome and releases any
// duplicates waiting on it.
func (e *dedupEntry) commit(accepted int, rejects []BatchReject, err error) {
	t := e.tab
	t.mu.Lock()
	e.accepted, e.rejects, e.err = accepted, rejects, err
	e.done = true
	if e.waiters > 0 {
		t.settled.Broadcast()
	}
	t.mu.Unlock()
}

// wait returns the outcome of the batch a duplicate's begin found,
// once the original's commit has recorded it.
func (e *dedupEntry) wait() (accepted int, rejects []BatchReject, err error) {
	t := e.tab
	t.mu.Lock()
	defer t.mu.Unlock()
	for !e.done {
		t.settled.Wait()
	}
	e.waiters--
	return e.accepted, e.rejects, e.err
}

// forget drops a sender's window (a restarted receiver starts empty
// anyway; this is for symmetric cleanup in tests and rejoin paths).
func (t *dedupTable) forget(sender string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.senders, sender)
}

// size reports the total retained entries across senders.
func (t *dedupTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, sw := range t.senders {
		for _, e := range sw.ring {
			if e != nil && e.seq >= sw.low {
				n++
			}
		}
	}
	return n
}
