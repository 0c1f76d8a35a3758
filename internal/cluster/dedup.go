package cluster

import "sync"

// Receiver-side delivery deduplication. Retried batches (and chaos
// duplicates) arrive carrying the same BatchID; the hosting node must
// apply each sequenced batch to its queues exactly once, and answer
// every duplicate with the original outcome — at-least-once on the
// wire, exactly-once at the queue boundary. The window is keyed by
// sender identity: each sender's recent sequence numbers map to the
// cached delivery outcome, with entries beyond the window evicted (a
// retry never lags thousands of batches behind; the window only needs
// to out-live the sender's bounded retry horizon).

// dedupEntry caches one sequenced batch's delivery outcome. done is
// closed when the first delivery finishes, so a duplicate racing the
// original waits for the real outcome instead of re-applying.
type dedupEntry struct {
	done     chan struct{}
	accepted int
	rejects  []BatchReject
	err      error
}

// senderWindow is one sender's recent delivery history. Every sequence
// number below low has been evicted.
type senderWindow struct {
	epoch   uint64
	low     uint64
	maxSeq  uint64
	entries map[uint64]*dedupEntry
}

// dedupTable is a cluster node's per-sender dedup state.
type dedupTable struct {
	mu      sync.Mutex
	window  uint64
	senders map[string]*senderWindow
}

func newDedupTable(window int) *dedupTable {
	return &dedupTable{
		window:  uint64(window),
		senders: make(map[string]*senderWindow),
	}
}

// begin claims the right to apply the batch identified by id. It
// returns (entry, false) when the caller must apply the batch and
// commit the outcome into entry, and (entry, true) when the batch is a
// duplicate — the caller waits on entry.done and returns the cached
// outcome. A nil entry means the batch must be applied without caching:
// a stale epoch (a previous incarnation of the sender), or a sequence
// number already below the window.
func (t *dedupTable) begin(id BatchID) (*dedupEntry, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sw := t.senders[id.Sender]
	if sw == nil || sw.epoch < id.Epoch {
		// First contact with this sender incarnation: any previous
		// incarnation's window is stale (its seq counter restarted), so
		// it is dropped whole.
		sw = &senderWindow{epoch: id.Epoch, entries: make(map[uint64]*dedupEntry)}
		t.senders[id.Sender] = sw
	}
	if id.Epoch < sw.epoch || id.Seq < sw.low {
		return nil, false
	}
	if e := sw.entries[id.Seq]; e != nil {
		return e, true
	}
	e := &dedupEntry{done: make(chan struct{})}
	sw.entries[id.Seq] = e
	if id.Seq > sw.maxSeq {
		sw.maxSeq = id.Seq
	}
	if sw.maxSeq >= t.window {
		sw.evictBelow(sw.maxSeq - t.window + 1)
	}
	return e, false
}

// evictBelow raises the low watermark, dropping the entries it passes.
// Seqs are issued densely per sender, so stepping from the old mark
// deletes about one entry per batch; a jump wider than the resident set
// walks the map instead.
func (sw *senderWindow) evictBelow(low uint64) {
	if low <= sw.low {
		return
	}
	if low-sw.low > uint64(len(sw.entries)) {
		for seq := range sw.entries {
			if seq < low {
				delete(sw.entries, seq)
			}
		}
	} else {
		for seq := sw.low; seq < low; seq++ {
			delete(sw.entries, seq)
		}
	}
	sw.low = low
}

// commit records the applied batch's outcome and releases any
// duplicates waiting on it.
func (e *dedupEntry) commit(accepted int, rejects []BatchReject, err error) {
	e.accepted = accepted
	e.rejects = rejects
	e.err = err
	close(e.done)
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
		n += len(sw.entries)
	}
	return n
}
