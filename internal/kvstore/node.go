package kvstore

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"muppet/internal/clock"
	"muppet/internal/lsm"
)

// appendRowKey appends the row key of <key, column> to dst: the pair
// composed into a single engine key. The NUL separator cannot appear in
// Muppet function names.
func appendRowKey(dst []byte, key, column string) []byte {
	dst = append(dst, key...)
	dst = append(dst, 0)
	return append(dst, column...)
}

func splitRowKey(rk string) (key, column string) {
	i := strings.IndexByte(rk, 0)
	if i < 0 {
		return rk, ""
	}
	return rk[:i], rk[i+1:]
}

// NodeConfig tunes a single store node.
type NodeConfig struct {
	// MemtableFlushBytes flushes the memtable to a new sstable once its
	// approximate size exceeds this threshold. Larger values buffer more
	// writes in memory — the §4.2 "delay flushing as long as possible"
	// strategy.
	MemtableFlushBytes int64
	// CompactionThreshold compacts all sstables into one when the run
	// count reaches this value.
	CompactionThreshold int
	// Dir is where the node's internal/lsm engine keeps its files: rows
	// survive process restarts and puts are fsync'd before
	// acknowledgement. Empty runs the same engine over a private
	// in-memory filesystem (lsm.MemFS) that lives as long as the node.
	Dir string
	// Clock supplies time for TTL bookkeeping; nil means the real clock.
	Clock clock.Clock
}

func (c *NodeConfig) fill() {
	if c.MemtableFlushBytes <= 0 {
		c.MemtableFlushBytes = 4 << 20
	}
	if c.CompactionThreshold <= 0 {
		c.CompactionThreshold = 4
	}
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
}

// NodeStats is a snapshot of a node's internals.
type NodeStats struct {
	MemtableRows   int    `metric:"muppet_kvstore_memtable_rows" help:"Rows buffered in memtables."`
	MemtableBytes  int64  `metric:"muppet_kvstore_memtable_bytes" help:"Bytes buffered in memtables."`
	SSTables       int    `metric:"muppet_kvstore_sstables" help:"SSTables on disk."`
	SSTableBytes   int64  `metric:"muppet_kvstore_sstable_bytes" help:"Bytes held in SSTables."`
	Flushes        uint64 `metric:"muppet_kvstore_flushes_total" help:"Memtable flushes."`
	Compactions    uint64 `metric:"muppet_kvstore_compactions_total" help:"SSTable compactions."`
	Reads          uint64 `metric:"muppet_kvstore_reads_total" help:"Row reads served."`
	ReadsFromMem   uint64 `metric:"muppet_kvstore_reads_from_mem_total" help:"Row reads served from the memtable."`
	SSTableProbes  uint64 `metric:"muppet_kvstore_sstable_probes_total" help:"SSTables actually read from device."`
	BloomSkips     uint64 `metric:"muppet_kvstore_bloom_skips_total" help:"SSTable reads skipped by bloom filters."`
	ExpiredDropped uint64 `metric:"muppet_kvstore_expired_dropped_total" help:"Rows GC'd by compaction (TTL or tombstone)."`

	// Real I/O the engine issued to its filesystem; exposed as
	// muppet_lsm_* only when Durable (see runtime's lsmMetrics).
	Durable           bool   // the engine's files are on disk (NodeConfig.Dir set)
	Fsyncs            uint64 `metric:"-"` // real fsyncs issued
	DiskBytesWritten  int64  `metric:"-"` // real bytes written (WAL + segments)
	DiskBytesRead     int64  `metric:"-"` // real bytes read off segments
	WALBytes          int64  `metric:"-"` // bytes in the active write-ahead log
	CompactionBacklog int    `metric:"-"` // segments past the compaction threshold
}

// Node is one storage server. It is safe for concurrent use and can be
// marked down to simulate a crash.
type Node struct {
	name string
	cfg  NodeConfig

	mu   sync.Mutex
	eng  *lsm.Engine
	down bool
	// key and rows are the scratch a read composes its row key in and a
	// write builds its rows in, so neither allocates of its own: the
	// engine only compares a read's key, and copies what a write keeps.
	// Guarded by mu.
	key  []byte
	rows []lsm.Row
	// flips counts SetDown's changes of state.
	flips atomic.Uint64
}

// OpenNode returns a node with the given name and configuration,
// opening (recovering if needed) its lsm engine at cfg.Dir, or over a
// fresh in-memory filesystem when cfg.Dir is empty.
func OpenNode(name string, cfg NodeConfig) (*Node, error) {
	cfg.fill()
	opt := lsm.Options{
		MemtableFlushBytes:  cfg.MemtableFlushBytes,
		CompactionThreshold: cfg.CompactionThreshold,
		Clock:               cfg.Clock,
	}
	dir := cfg.Dir
	if dir == "" {
		opt.FS, dir = lsm.NewMemFS(), "/"+name
	}
	eng, err := lsm.Open(dir, opt)
	if err != nil {
		return nil, err
	}
	return &Node{name: name, cfg: cfg, eng: eng}, nil
}

// Close waits for a running compaction and releases the engine's
// files.
func (n *Node) Close() error { return n.eng.Close() }

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// SetDown marks the node crashed (true) or recovered (false). A node
// that recovers serves every row it acknowledged, flushed or not: each
// was in the write-ahead log before its put returned, like a Cassandra
// restart replaying its commit log. (What a Muppet failure loses is the
// unflushed slate changes in the cache above the store, §4.3.)
//
// A change of state is counted (Cluster.VisibilityChanges) under the
// lock Scan reads the state through: a scan that saw the new state sees
// the count moved.
func (n *Node) SetDown(down bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down != down {
		n.down = down
		n.flips.Add(1)
	}
}

// Down reports whether the node is marked crashed.
func (n *Node) Down() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.down
}

// ErrNodeDown is returned by operations on a crashed node.
type ErrNodeDown struct{ Node string }

func (e ErrNodeDown) Error() string { return "kvstore: node " + e.Node + " is down" }

// Put writes value at <key, column> with the given TTL (0 = forever).
func (n *Node) Put(key, column string, value []byte, ttl time.Duration) error {
	return n.write([]BatchEntry{{Key: key, Column: column, Value: value, TTL: ttl}}, false, time.Time{})
}

// write stores one row per entry as one WAL group commit, synced
// before acknowledgement. Every row gets the given tombstone flag and
// write time; a zero time stamps the node's clock. Read repair passes
// another replica's row instead (value, write time, TTL, tombstone),
// so the repaired copy expires when its source does. The rows are
// built in the node's scratch and the engine copies what it keeps, so
// the entries' values are the caller's again when write returns.
func (n *Node) write(entries []BatchEntry, tombstone bool, at time.Time) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown{n.name}
	}
	if at.IsZero() {
		at = n.cfg.Clock.Now()
	}
	n.key = n.key[:0]
	for _, e := range entries {
		n.key = appendRowKey(n.key, e.Key, e.Column)
	}
	rows, off := n.rows[:0], 0
	for _, e := range entries {
		k := len(e.Key) + 1 + len(e.Column)
		rows = append(rows, lsm.Row{Key: unsafe.String(&n.key[off], k), Value: e.Value, WriteTime: at, TTL: e.TTL, Tombstone: tombstone})
		off += k
	}
	_, err := n.eng.Put(rows)
	clear(rows) // the scratch must not keep the callers' values alive
	n.rows = rows[:0]
	return err
}

// BatchEntry is one write inside a multi-put batch.
type BatchEntry struct {
	Key    string
	Column string
	Value  []byte
	// TTL of zero means the row lives forever.
	TTL time.Duration
}

// PutBatch applies a batch of writes under a single lock acquisition
// and a single commit-log append: one WAL record and one fsync for the
// whole batch instead of one per row. It keeps none of the entries'
// bytes (the engine copies them), and allocates nothing per row when
// it overwrites rows no read or scan has been handed since their last
// write: the engine rewrites those values in place. A new key, or a row
// a Get or a Scan has handed out, costs one buffer for its key and
// value.
func (n *Node) PutBatch(entries []BatchEntry) error {
	if len(entries) == 0 {
		return nil
	}
	return n.write(entries, false, time.Time{})
}

// Delete writes a tombstone for <key, column>.
func (n *Node) Delete(key, column string) error {
	return n.write([]BatchEntry{{Key: key, Column: column}}, true, time.Time{})
}

// Get reads <key, column>, returning the value and the stored row
// (write time and TTL, for read repair). The boolean reports whether a
// live row was found. Expired and tombstoned rows read as absent, but
// their row is returned, so a replicated read can tell a newer
// deletion from an older write. A miss allocates nothing.
func (n *Node) Get(key, column string) ([]byte, lsm.Row, bool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, lsm.Row{}, false, ErrNodeDown{n.name}
	}
	// The engine only compares the key, so the lookup can borrow the
	// scratch buffer. A segment hit hands that key back as the row's,
	// so the row leaves without it.
	n.key = appendRowKey(n.key[:0], key, column)
	r, ok, _, err := n.eng.Get(unsafe.String(unsafe.SliceData(n.key), len(n.key)))
	if err != nil {
		return nil, lsm.Row{}, false, err
	}
	r.Key = ""
	if !ok || r.Deleted(n.cfg.Clock.Now()) {
		return nil, r, false, nil
	}
	return r.Value, r, true, nil
}

// Flush forces the memtable to disk as a new sstable. A down node
// flushes nothing.
func (n *Node) Flush() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	_, err := n.eng.Flush()
	return err
}

// Compact merges all sstables into one, dropping tombstones and
// TTL-expired rows. A down node compacts nothing.
func (n *Node) Compact() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil
	}
	_, _, err := n.eng.Compact()
	return err
}

// Stats returns a snapshot of the node's internals, including a merged
// live-row count (memtable over sstables, TTL and tombstones applied).
// The count is a full scan, so it runs after the node lock is released:
// a metrics scrape delays no Put or Get.
func (n *Node) Stats() NodeStats {
	n.mu.Lock()
	es := n.eng.Stats()
	n.mu.Unlock()
	s := NodeStats{
		MemtableRows:   es.MemtableRows,
		MemtableBytes:  es.MemtableBytes,
		SSTables:       es.Segments,
		SSTableBytes:   es.SegmentBytes,
		Flushes:        uint64(es.Flushes),
		Compactions:    uint64(es.Compactions),
		Reads:          uint64(es.Reads),
		ReadsFromMem:   uint64(es.ReadsFromMem),
		SSTableProbes:  uint64(es.SegmentProbes),
		BloomSkips:     uint64(es.BloomSkips),
		ExpiredDropped: uint64(es.ExpiredDropped),

		Durable:           n.cfg.Dir != "",
		Fsyncs:            uint64(es.Fsyncs),
		DiskBytesWritten:  es.BytesWritten,
		DiskBytesRead:     es.BytesRead,
		WALBytes:          es.WALBytes,
		CompactionBacklog: es.CompactionBacklog,
	}
	return s
}

// LiveRows counts the node's live rows (newest-wins, tombstones and
// expired excluded). It merges every segment, and its reads count in
// DiskBytesRead: for tests, experiments and examples, not for a metrics
// scrape.
func (n *Node) LiveRows() (int, error) { return n.eng.LiveRows() }

// Scan calls fn for every live row in the node whose column matches
// the given column (the bulk slate-read path of Section 5). Rows
// arrive in ascending row-key order — the lsm engine's merged order —
// which the query subsystem's range scans rely on.
func (n *Node) Scan(column string, fn func(key string, value []byte)) error {
	return n.ScanUntil(column, func(k string, v []byte) bool {
		fn(k, v)
		return true
	})
}

// ScanUntil is Scan with early termination: it stops as soon as fn
// returns false. The rejoin cache-warming path uses it to stop at its
// warm limit instead of sweeping the whole store. fn runs outside the
// node's and the engine's locks, over the engine's snapshot as of the
// call, so it may read and write the same node. A scan the engine
// cannot complete (closed, a segment that will not load) is an error —
// never a silently shorter scan; a node marked down has no rows.
func (n *Node) ScanUntil(column string, fn func(key string, value []byte) bool) error {
	if n.Down() {
		return nil
	}
	return n.eng.Scan(func(r lsm.Row) bool {
		k, col := splitRowKey(r.Key)
		if col != column {
			return true
		}
		return fn(k, r.Value)
	})
}
