package lsm

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"muppet/internal/clock"
)

// Options configures an Engine. The zero value of every field is
// replaced by the documented default in Open.
type Options struct {
	// MemtableFlushBytes is the memtable size that triggers a flush to
	// a new L0 segment. Default 4 MiB.
	MemtableFlushBytes int64
	// CompactionThreshold is the segment count at which the background
	// compactor merges every segment into one. Default 4.
	CompactionThreshold int
	// IndexEvery is the sparse-index stride: every IndexEvery-th row of
	// a segment is indexed, bounding a point read to one stride of rows.
	// Default 16.
	IndexEvery int
	// FS is the filesystem to write through. Default OSFS.
	FS FS
	// Clock supplies time for TTL expiry. Default the real clock.
	Clock clock.Clock
	// DisableAutoCompact turns off the background compactor; Compact
	// must then be called explicitly. Flushing is unaffected.
	DisableAutoCompact bool
}

func (o Options) withDefaults() Options {
	if o.MemtableFlushBytes <= 0 {
		o.MemtableFlushBytes = 4 << 20
	}
	if o.CompactionThreshold <= 1 {
		o.CompactionThreshold = 4
	}
	if o.IndexEvery <= 0 {
		o.IndexEvery = 16
	}
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Clock == nil {
		o.Clock = clock.Real{}
	}
	return o
}

// Stats are the engine's cheap counters, copied under the engine lock.
// Byte and fsync counts are real I/O issued to the FS.
type Stats struct {
	MemtableRows  int
	MemtableBytes int64
	Segments      int
	SegmentBytes  int64
	WALBytes      int64

	Flushes        int64
	Compactions    int64
	Reads          int64
	ReadsFromMem   int64
	SegmentProbes  int64
	BloomSkips     int64
	ExpiredDropped int64

	Fsyncs       int64
	BytesWritten int64
	BytesRead    int64

	// CompactionBacklog is how many segments past the threshold are
	// waiting to be merged (0 when the tree is within budget).
	CompactionBacklog int
}

// Engine is a durable log-structured store: WAL → memtable → immutable
// sorted segments, with a manifest as the atomic root pointer. One
// mutex guards all state; segments are immutable once written, so
// compaction merges outside the lock and swaps the segment list under
// it.
type Engine struct {
	dir string
	opt Options
	fs  FS

	mu     sync.Mutex
	mem    *memtable
	segs   []*segment // newest first
	wal    *walWriter
	next   uint64 // next file sequence number
	stats  Stats
	closed bool
	// readBuf is the block buffer of Get's segment reads, under mu.
	readBuf []byte
	// broken is set when a WAL sync or manifest commit fails and the
	// on-disk state is no longer known to match memory. The engine goes
	// fail-stop for writes: acknowledging anything more could be lost on
	// replay. Reads keep working; recovery is Close + Open.
	broken error

	// compactPending is set while a background compaction spawned by a
	// flush has not started its run yet, so a burst of flushes past the
	// threshold queues one run, not one goroutine each.
	compactPending bool
	wg             sync.WaitGroup // background compactions; Close waits on it
	compactMu      sync.Mutex     // serializes compaction runs
}

// Open opens (or creates) the engine rooted at dir and recovers it to
// exactly the acknowledged state: the manifest names the live
// segments, intact WAL records are replayed (a torn tail is dropped —
// it was never acknowledged), a recovered memtable is flushed to a
// fresh segment, and files the manifest does not own are swept.
func Open(dir string, opt Options) (*Engine, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	man, _, err := readManifest(fs, dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: open %s: %w", dir, err)
	}
	e := &Engine{dir: dir, opt: opt, fs: fs, mem: newMemtable()}
	// Never reuse a sequence number, even one belonging to an orphan
	// file about to be swept.
	e.next = man.Next
	if e.next == 0 {
		e.next = 1
	}
	var walSeqs []uint64
	for _, name := range names {
		seq, kind := parseFileName(name)
		if kind == "" {
			continue
		}
		if seq >= e.next {
			e.next = seq + 1
		}
		if kind == "wal" && seq >= man.WALSeq {
			walSeqs = append(walSeqs, seq)
		}
	}
	for _, seq := range man.Segments { // manifest stores newest first
		seg, err := openSegment(fs, dir, seq)
		if err != nil {
			e.closeFiles()
			return nil, err
		}
		e.segs = append(e.segs, seg)
		e.stats.SegmentBytes += seg.bytes
	}
	// Replay acknowledged WAL records oldest file first; newer records
	// overwrite older ones in the memtable.
	sort.Slice(walSeqs, func(i, j int) bool { return walSeqs[i] < walSeqs[j] })
	for _, seq := range walSeqs {
		err := readWAL(fs, dir, seq, e.mem.put)
		if err != nil {
			e.closeFiles()
			return nil, err
		}
	}
	// Persist the recovered memtable as a segment so the old WALs can
	// be retired; then open a fresh WAL and commit the whole new state
	// with one manifest rename.
	if e.mem.len() > 0 {
		seg, n, err := writeSegment(fs, dir, e.nextSeq(), e.mem.sorted(false), opt.IndexEvery)
		if err != nil {
			e.closeFiles()
			return nil, err
		}
		e.stats.Fsyncs += 2
		e.stats.BytesWritten += n
		e.stats.SegmentBytes += seg.bytes
		e.stats.Flushes++
		e.segs = append([]*segment{seg}, e.segs...)
		e.mem = newMemtable()
	}
	wal, err := newWAL(fs, dir, e.nextSeq())
	if err != nil {
		e.closeFiles()
		return nil, err
	}
	e.wal = wal
	e.stats.Fsyncs++
	if err := e.commitManifestLocked(); err != nil {
		e.closeFiles()
		return nil, err
	}
	// Sweep files the committed manifest does not own: retired WALs,
	// orphan segments from a crashed flush or compaction, stale tmp.
	live := make(map[string]bool, len(e.segs)+2)
	for _, s := range e.segs {
		live[segName(s.seq)] = true
	}
	live[walName(e.wal.seq)] = true
	live[manifestName] = true
	for _, name := range names {
		if _, kind := parseFileName(name); kind == "" && name != manifestTmpName {
			continue
		}
		if !live[name] {
			fs.Remove(dir + "/" + name) // best effort: re-swept next Open
		}
	}
	return e, nil
}

// parseFileName classifies a data-dir file name, returning its
// sequence number and kind ("wal" or "seg"), or kind "" for files the
// engine does not own.
func parseFileName(name string) (uint64, string) {
	var kind string
	switch {
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".log"):
		kind = "wal"
	case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".sst"):
		kind = "seg"
	default:
		return 0, ""
	}
	seq, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, ""
	}
	return seq, kind
}

func (e *Engine) nextSeq() uint64 { seq := e.next; e.next++; return seq }

// commitManifestLocked writes the manifest describing current state.
func (e *Engine) commitManifestLocked() error {
	m := manifest{Next: e.next, WALSeq: e.wal.seq, Segments: make([]uint64, len(e.segs))}
	for i, s := range e.segs {
		m.Segments[i] = s.seq
	}
	if err := writeManifest(e.fs, e.dir, m); err != nil {
		return err
	}
	e.stats.Fsyncs += 2
	return nil
}

// Put makes rows durable (WAL fsync) and visible, as one atomic batch:
// when Put returns nil the batch survives any crash; on error none of
// it is acknowledged. flushed reports segment bytes written if the put
// tripped a memtable flush. Put copies what it keeps, so the rows'
// bytes are the caller's again when it returns (see the package doc's
// write path).
func (e *Engine) Put(rows []Row) (flushed int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("lsm: engine closed")
	}
	if e.broken != nil {
		return 0, fmt.Errorf("lsm: engine failed, reopen to recover: %w", e.broken)
	}
	if len(rows) == 0 {
		return 0, nil
	}
	n, err := e.wal.append(rows)
	if err != nil {
		// The WAL tail is now in an unknown state; a later record
		// appended after torn bytes would be unreachable at replay.
		e.broken = err
		return 0, err
	}
	e.stats.Fsyncs++
	e.stats.BytesWritten += n
	for _, r := range rows {
		e.mem.put(r)
	}
	if e.mem.bytes >= e.opt.MemtableFlushBytes {
		return e.flushLocked()
	}
	return 0, nil
}

// Get returns the newest stored version of key, including tombstones
// and expired rows — visibility is the caller's decision (Row.Deleted;
// Scan applies it). The row's bytes are the caller's to keep: later
// puts never change them. A row found in a segment carries key itself
// as its Key. bytesRead is the segment bytes the probe read
// off the FS, the same bytes Stats.BytesRead counts; a memtable hit
// reads none.
func (e *Engine) Get(key string) (r Row, ok bool, bytesRead int64, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return Row{}, false, 0, fmt.Errorf("lsm: engine closed")
	}
	e.stats.Reads++
	if r, ok := e.mem.get(key); ok {
		e.stats.ReadsFromMem++
		return r, true, 0, nil
	}
	for _, seg := range e.segs {
		if !seg.filter.MayContain(key) {
			e.stats.BloomSkips++
			continue
		}
		e.stats.SegmentProbes++
		r, ok, n, err := seg.get(key, &e.readBuf)
		bytesRead += n
		e.stats.BytesRead += n
		if err != nil {
			return Row{}, false, bytesRead, err
		}
		if ok {
			return r, true, bytesRead, nil
		}
	}
	return Row{}, false, bytesRead, nil
}

// Scan calls fn for every live row (tombstones and expired rows
// resolved away, newest version wins) in ascending key order, stopping
// early if fn returns false. The engine lock is held only to pin the
// view — a copy of the memtable's rows in key order plus a reference to
// each segment — and the merge, every segment read and every callback
// run after it is released. So fn sees the snapshot as of the call, may
// itself call Get or Put, and delays no writer, flush or cache-miss
// load; a compaction meanwhile retires the segments only when the scan
// lets go of them.
func (e *Engine) Scan(fn func(Row) bool) error {
	v, err := e.pin(true)
	if err != nil {
		return err
	}
	defer e.unpin(v)
	return v.merge(func(c *cursor) (bool, error) {
		if c.row.Deleted(v.now) {
			return true, nil
		}
		r := c.row
		var err error
		if r.Value, err = c.value(); err != nil {
			return false, err
		}
		return fn(r), nil
	})
}

// view is a pinned read view of the engine: the memtable's rows in key
// order as of the pin, and the segments then live, each held open by a
// reference until the view is unpinned.
type view struct {
	mem  []Row
	segs []*segment // newest first
	now  time.Time
	read int64 // segment bytes the merge read
}

// pin takes a read view under the engine lock. share hands the
// memtable rows' values out with it, for Scan's callback; LiveRows
// reads none and leaves them private.
func (e *Engine) pin(share bool) (*view, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, fmt.Errorf("lsm: engine closed")
	}
	return &view{mem: e.mem.sorted(share), segs: e.refSegsLocked(), now: e.opt.Clock.Now()}, nil
}

// refSegsLocked returns the live segment list, each segment referenced
// once more for the caller to release.
func (e *Engine) refSegsLocked() []*segment {
	segs := append([]*segment(nil), e.segs...)
	for _, s := range segs {
		s.refs.Add(1)
	}
	return segs
}

// unpin releases the view's segments and books what the merge read.
func (e *Engine) unpin(v *view) {
	for _, s := range v.segs {
		s.release()
	}
	if v.read > 0 {
		e.mu.Lock()
		e.stats.BytesRead += v.read
		e.mu.Unlock()
	}
}

// merge k-way merges the view's sorted sources, calling fn with the
// cursor that holds the newest version of each key, in ascending key
// order and with tombstones and expired rows included, until fn returns
// false. Sources rank newest first — the memtable, then the segments
// newest to oldest — so on equal keys the first ranked wins, and the
// versions it shadows are stepped past without decoding their values.
func (v *view) merge(fn func(c *cursor) (bool, error)) error {
	cs := make([]cursor, 1, 1+len(v.segs))
	cs[0].mem = v.mem
	for _, s := range v.segs {
		cs = append(cs, cursor{seg: s})
	}
	defer func() {
		for i := range cs {
			v.read += cs[i].read
		}
	}()
	heads := make([]*cursor, 0, len(cs))
	for i := range cs {
		ok, err := cs[i].next()
		if err != nil {
			return err
		}
		if ok {
			heads = append(heads, &cs[i])
		}
	}
	for len(heads) > 0 {
		best := heads[0]
		for _, c := range heads[1:] {
			if c.row.Key < best.row.Key {
				best = c
			}
		}
		if more, err := fn(best); err != nil || !more {
			return err
		}
		key := best.row.Key
		for i := 0; i < len(heads); {
			if heads[i].row.Key != key {
				i++
				continue
			}
			ok, err := heads[i].next()
			if err != nil {
				return err
			}
			if ok {
				i++
			} else {
				heads = slices.Delete(heads, i, i+1)
			}
		}
	}
	return nil
}

// Flush forces the memtable to a segment regardless of size.
func (e *Engine) Flush() (int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, fmt.Errorf("lsm: engine closed")
	}
	return e.flushLocked()
}

// flushLocked persists the memtable as a new L0 segment and retires
// the WAL behind it. Commit order: segment synced → fresh WAL synced →
// manifest renamed (the commit point) → old WAL removed. A crash
// before the rename leaves the old manifest and old WAL, which replay
// to the same memtable; after it, the segment owns the rows.
func (e *Engine) flushLocked() (int64, error) {
	if e.broken != nil {
		return 0, fmt.Errorf("lsm: engine failed, reopen to recover: %w", e.broken)
	}
	if e.mem.len() == 0 {
		return 0, nil
	}
	seg, n, err := writeSegment(e.fs, e.dir, e.nextSeq(), e.mem.sorted(false), e.opt.IndexEvery)
	if err != nil {
		return 0, err
	}
	e.stats.Fsyncs += 2
	e.stats.BytesWritten += n
	oldWAL := e.wal
	wal, err := newWAL(e.fs, e.dir, e.nextSeq())
	if err != nil {
		seg.release()
		return 0, err
	}
	e.stats.Fsyncs++
	e.segs = append([]*segment{seg}, e.segs...)
	e.wal = wal
	if err := e.commitManifestLocked(); err != nil {
		// Roll back in-memory state. The rename may or may not have hit
		// disk, so which manifest rules is unknown — fail-stop.
		e.broken = err
		e.segs = e.segs[1:]
		e.wal = oldWAL
		seg.release()
		wal.close()
		return 0, err
	}
	e.stats.SegmentBytes += seg.bytes
	e.stats.Flushes++
	e.mem = newMemtable()
	oldWAL.close()
	e.fs.Remove(oldWAL.path) // best effort: manifest already retired it
	if len(e.segs) >= e.opt.CompactionThreshold && !e.opt.DisableAutoCompact && !e.compactPending {
		// The engine keeps no resident goroutine: the flush that crosses
		// the threshold starts the merge, and Close waits for it.
		e.compactPending = true
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.compact(true)
		}()
	}
	return n, nil
}

// Compact merges every segment into one, dropping overwritten
// versions, tombstones, and TTL-expired rows (safe because the merge
// spans all segments; anything newer lives in the memtable and wins at
// read time). It rewrites any non-empty tree — a single segment too,
// which is how space held by deleted and expired rows is reclaimed on
// demand. The merge runs outside the engine lock — segments are
// immutable and concurrent flushes only prepend — and the swap commits
// with one manifest rename.
func (e *Engine) Compact() (read, written int64, err error) { return e.compact(false) }

// compact is Compact; a background run (started by the flush that
// crossed CompactionThreshold) merges only if the tree is still at the
// threshold when its turn comes.
func (e *Engine) compact(background bool) (read, written int64, err error) {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()

	e.mu.Lock()
	minSegs := 1
	if background {
		e.compactPending = false
		minSegs = e.opt.CompactionThreshold
	}
	if e.closed {
		e.mu.Unlock()
		return 0, 0, fmt.Errorf("lsm: engine closed")
	}
	if e.broken != nil {
		err := fmt.Errorf("lsm: engine failed, reopen to recover: %w", e.broken)
		e.mu.Unlock()
		return 0, 0, err
	}
	if len(e.segs) < minSegs {
		e.mu.Unlock()
		return 0, 0, nil
	}
	v := &view{segs: e.refSegsLocked(), now: e.opt.Clock.Now()}
	snapshot := v.segs
	newSeq := e.nextSeq()
	e.mu.Unlock()
	defer e.unpin(v)

	var dropped int64
	var merged []Row
	err = v.merge(func(c *cursor) (bool, error) {
		switch {
		case c.row.Tombstone:
		case c.row.expired(v.now):
			dropped++
		default:
			r := c.row
			var err error
			if r.Value, err = c.value(); err != nil {
				return false, err
			}
			merged = append(merged, r)
		}
		return true, nil
	})
	read = v.read
	if err != nil {
		return read, 0, err
	}

	var newSegs []*segment
	if len(merged) > 0 {
		seg, n, err := writeSegment(e.fs, e.dir, newSeq, merged, e.opt.IndexEvery)
		if err != nil {
			return read, 0, err
		}
		written = n
		newSegs = []*segment{seg}
		e.mu.Lock()
		e.stats.Fsyncs += 2
		e.stats.BytesWritten += n
		e.mu.Unlock()
	}

	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		retire(newSegs)
		return read, written, fmt.Errorf("lsm: engine closed")
	}
	// Flushes during the merge prepended segments; keep those, replace
	// the snapshot suffix with the merged segment.
	keep := e.segs[:len(e.segs)-len(snapshot)]
	e.segs = append(append([]*segment(nil), keep...), newSegs...)
	if err := e.commitManifestLocked(); err != nil {
		// Restore the previous list; whether the rename committed is
		// unknown, so the engine goes fail-stop for writes.
		e.broken = err
		e.segs = append(append([]*segment(nil), keep...), snapshot...)
		e.mu.Unlock()
		retire(newSegs)
		return read, written, err
	}
	e.stats.Compactions++
	e.stats.ExpiredDropped += dropped
	var segBytes int64
	for _, s := range e.segs {
		segBytes += s.bytes
	}
	e.stats.SegmentBytes = segBytes
	e.mu.Unlock()
	retire(snapshot)
	return read, written, nil
}

// retire drops the engine's reference to segments the manifest does not
// own; the last reference, perhaps a scan's, closes and removes each.
func retire(segs []*segment) {
	for _, s := range segs {
		s.retired.Store(true)
		s.release()
	}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.MemtableRows = e.mem.len()
	s.MemtableBytes = e.mem.bytes
	s.Segments = len(e.segs)
	var segBytes int64
	for _, seg := range e.segs {
		segBytes += seg.bytes
	}
	s.SegmentBytes = segBytes
	if e.wal != nil {
		s.WALBytes = e.wal.bytes
	}
	if backlog := len(e.segs) - e.opt.CompactionThreshold + 1; backlog > 0 {
		s.CompactionBacklog = backlog
	}
	return s
}

// LiveRows counts rows visible right now (newest-wins, tombstones and
// expired excluded). It runs Scan's merge without decoding any value,
// outside the engine lock, but still reads every segment: use for
// tests and stats, not hot paths.
func (e *Engine) LiveRows() (int, error) {
	v, err := e.pin(false)
	if err != nil {
		return 0, err
	}
	defer e.unpin(v)
	n := 0
	err = v.merge(func(c *cursor) (bool, error) {
		if !c.row.Deleted(v.now) {
			n++
		}
		return true, nil
	})
	return n, err
}

// Close waits for a running compaction and releases file handles. It
// does not flush: the WAL already holds every acknowledged row, so Open
// after Close recovers the identical state (that recovery path is
// exercised constantly, not only after crashes).
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.wg.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	var first error
	if e.wal != nil {
		if err := e.wal.close(); err != nil && first == nil {
			first = err
		}
	}
	if err := e.closeSegsLocked(); err != nil && first == nil {
		first = err
	}
	return first
}

func (e *Engine) closeSegsLocked() error {
	var first error
	for _, s := range e.segs {
		if err := s.release(); err != nil && first == nil {
			first = err
		}
	}
	e.segs = nil
	return first
}

// closeFiles releases handles during a failed Open.
func (e *Engine) closeFiles() {
	if e.wal != nil {
		e.wal.close()
	}
	e.closeSegsLocked()
}
