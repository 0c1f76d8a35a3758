package runtime

import (
	"sync"
	"sync/atomic"
)

// coverage remembers, per <machine, updater>, that the machine's caches
// held every stored slate of the updater the machine owns, and for how
// long that provably stays true: until the machine's generation moves.
// A node-local query that finds its record current skips the store pass
// (see queryLocal). Only a full pass sets a record, so the skip never
// computes an answer of its own — it drops a pass the full path would
// have found empty.
//
// A stored slate the machine owns stops being resident in only these
// ways, and each moves the generation or makes it unsteady:
//   - it leaves a cache: an eviction, Delete or Crash, counted by the
//     cells' slate.Sharded.Removals;
//   - the ring hands the machine a key, or another machine may still
//     write one the machine owns: the recovery adapter's ring flips,
//     bracketed here, and a rejoin's handover, open until a
//     DropMisplacedSlates that started after it succeeds;
//   - a store row becomes visible without a write: a kvstore node going
//     down or coming back (kvstore.Cluster.VisibilityChanges);
//   - another engine writes the same store. Its ring changes and
//     interim copies are invisible here, so a record is kept only while
//     this runtime is the one engine attached to its store
//     (kvstore.Cluster.Attach), and a later attach moves the generation.
//
// Nothing else writes a key the machine owns without its cache holding
// the key: a flush writes resident slates, and the runtime's other
// machines write only keys they own on the same ring. A node restarted
// over a persisted store starts with no record, so its queries keep the
// full path until a pass shows the caches cover the store again.
type coverage struct {
	// flipsBegun and flipsEnded count the ring flips begun and ended;
	// they differ while one is under way.
	flipsBegun, flipsEnded atomic.Uint64
	// rejoins counts the rejoins whose ring flip is done, handedOver
	// the ones a successful DropMisplacedSlates has seen through: they
	// differ while an interim owner may still hold a rejoined machine's
	// key. A failed DropMisplacedSlates leaves them apart until the next
	// one succeeds.
	rejoins, handedOver atomic.Uint64

	mu      sync.Mutex
	records map[coverKey]generation
	// skipped counts, per machine, the node-local passes answered from
	// the caches alone; tests read it.
	skipped map[string]uint64
}

type coverKey struct{ machine, updater string }

// generation is what a coverage record is valid for. Every count only
// grows, so two reads are equal only if nothing that could break
// coverage happened between them.
type generation struct {
	ring, visibility, attaches, removals uint64
}

// flip runs a ring change inside its bracket.
func (cv *coverage) flip(change func()) {
	cv.flipsBegun.Add(1)
	change()
	cv.flipsEnded.Add(1)
}

// handOver notes that a DropMisplacedSlates which read rejoins as n
// when it started has evicted every misplaced entry.
func (cv *coverage) handOver(n uint64) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if n > cv.handedOver.Load() {
		cv.handedOver.Store(n)
	}
}

// generation reads machine's current generation. steady is false while
// a record may be neither set nor used: a ring flip or a rejoin's
// handover under way, or another engine attached to the store. The
// reads are ordered so that a change racing them shows as unsteady now
// or as a moved generation on the next read.
func (r *Runtime) generation(machine string) (g generation, steady bool) {
	ended := r.cover.flipsEnded.Load()
	g.ring = r.cover.flipsBegun.Load()
	steady = g.ring == ended && r.cover.rejoins.Load() == r.cover.handedOver.Load()
	if r.cfg.Store != nil {
		var attached int64
		g.attaches, attached = r.cfg.Store.Attached()
		steady = steady && attached == 1
		g.visibility = r.cfg.Store.VisibilityChanges()
	}
	for _, c := range r.byMachine[machine] {
		g.removals += c.Cache.Removals()
	}
	return g, steady
}

// covered reports whether k's record holds at generation g.
func (cv *coverage) covered(k coverKey, g generation) bool {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	rec, ok := cv.records[k]
	return ok && rec == g
}

// skip counts a pass of machine's that skipped the store.
func (cv *coverage) skip(machine string) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if cv.skipped == nil {
		cv.skipped = make(map[string]uint64)
	}
	cv.skipped[machine]++
}

// record notes that k's caches covered its store at generation g.
func (cv *coverage) record(k coverKey, g generation) {
	cv.mu.Lock()
	defer cv.mu.Unlock()
	if cv.records == nil {
		cv.records = make(map[coverKey]generation)
	}
	cv.records[k] = g
}
