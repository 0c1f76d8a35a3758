package kvstore

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/clock"
	"muppet/internal/hashring"
	"muppet/internal/lsm"
)

// Consistency is the quorum level for cluster reads and writes,
// matching the three levels the paper exposes to Muppet applications
// (Section 4.2): any single replica, a majority, or all replicas.
type Consistency int

const (
	// One succeeds after a single replica acknowledges.
	One Consistency = iota
	// Quorum succeeds after a majority of replicas acknowledge.
	Quorum
	// All succeeds only after every replica acknowledges.
	All
)

// String names the consistency level.
func (c Consistency) String() string {
	switch c {
	case One:
		return "ONE"
	case Quorum:
		return "QUORUM"
	case All:
		return "ALL"
	default:
		return "UNKNOWN"
	}
}

// required returns how many of rf replicas must acknowledge.
func (c Consistency) required(rf int) int {
	switch c {
	case One:
		return 1
	case Quorum:
		return rf/2 + 1
	default:
		return rf
	}
}

// ErrUnavailable is returned when too few replicas are alive to meet
// the requested consistency level.
var ErrUnavailable = errors.New("kvstore: not enough live replicas for consistency level")

// ClusterConfig tunes a replicated store cluster.
type ClusterConfig struct {
	// Nodes is the number of storage nodes.
	Nodes int
	// ReplicationFactor is the number of replicas per row.
	ReplicationFactor int
	// NetworkRTT is the simulated round-trip time to a replica. Each
	// request to a replica is charged RTT plus up to RTTJitter of
	// deterministic pseudo-random jitter; with quorum levels, the
	// operation latency is the k-th fastest replica's latency. This is
	// what makes ONE < QUORUM < ALL measurable in experiment E10.
	NetworkRTT time.Duration
	// RTTJitter is the maximum additional per-request delay.
	RTTJitter time.Duration
	// Seed makes the jitter deterministic.
	Seed int64
	// Dir, when non-empty, puts every node's engine on disk: node-NN
	// keeps its files in Dir/node-NN, and a cluster reopened on the same
	// Dir recovers every node's acknowledged rows. Empty runs each node
	// over its own in-memory filesystem.
	Dir string
	// Node is the per-node configuration template.
	Node NodeConfig
	// Clock supplies time; nil means the real clock.
	Clock clock.Clock
}

// Cluster is a set of replicated store nodes fronted by a consistent
// hash ring, standing in for the Cassandra cluster named in a Muppet
// application's configuration file.
type Cluster struct {
	cfg   ClusterConfig
	ring  *hashring.Ring
	nodes map[string]*Node

	mu  sync.Mutex
	rng *rand.Rand

	// attached counts the engines writing through the cluster now,
	// attaches every Attach ever made (see Attach).
	attached atomic.Int64
	attaches atomic.Uint64
}

// NewCluster builds a cluster of cfg.Nodes nodes named node-00..node-NN.
// It panics if a node fails to open (only a cfg.Dir can make one); use
// OpenCluster when the caller can handle the error.
func NewCluster(cfg ClusterConfig) *Cluster {
	c, err := OpenCluster(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// OpenCluster builds a cluster of cfg.Nodes nodes named
// node-00..node-NN, opening (and recovering) per-node storage under
// cfg.Dir when it is set.
func OpenCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 3
	}
	if cfg.ReplicationFactor <= 0 {
		cfg.ReplicationFactor = 3
	}
	if cfg.ReplicationFactor > cfg.Nodes {
		cfg.ReplicationFactor = cfg.Nodes
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	c := &Cluster{
		cfg:   cfg,
		nodes: make(map[string]*Node),
		rng:   rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	var names []string
	for i := 0; i < cfg.Nodes; i++ {
		name := fmt.Sprintf("node-%02d", i)
		names = append(names, name)
		ncfg := cfg.Node
		ncfg.Clock = cfg.Clock
		if cfg.Dir != "" {
			ncfg.Dir = filepath.Join(cfg.Dir, name)
		}
		n, err := OpenNode(name, ncfg)
		if err != nil {
			for _, opened := range c.nodes {
				opened.Close()
			}
			return nil, err
		}
		c.nodes[name] = n
	}
	c.ring = hashring.New(names, 0)
	return c, nil
}

// Close closes every node's storage engine.
func (c *Cluster) Close() error {
	var first error
	for _, name := range c.Nodes() {
		if err := c.nodes[name].Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// Nodes returns all node names in order.
func (c *Cluster) Nodes() []string {
	var names []string
	for n := range c.nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// replicas appends the replica set of <key, column> to dst: the ring
// position of the row key, hashed from the pair without composing it
// (hashring.HashPair equals the hash of key + "\x00" + column), so
// placement is the row key's and routing a row allocates nothing when
// dst has room.
func (c *Cluster) replicas(dst []string, key, column string) []string {
	return c.ring.AppendN(dst, hashring.HashPair(key, 0, column), c.cfg.ReplicationFactor)
}

// stackReplicas is the replica count a routing step holds without
// allocating; a larger replication factor grows the slice.
const stackReplicas = 8

// VisibilityChanges counts the times a node went down or came back up.
// It is the one way the rows Scan shows can change without a write or a
// delete — a revived replica serves the rows it held — so a reader that
// keeps a conclusion drawn from a scan compares it before and after.
func (c *Cluster) VisibilityChanges() uint64 {
	var n uint64
	for _, node := range c.nodes {
		n += node.flips.Load()
	}
	return n
}

// Attach registers one more engine writing through the cluster and
// returns the func that unregisters it. An engine that keeps a
// conclusion drawn from a scan — every stored row it owns is one it
// wrote — keeps it only while it is the one engine attached, and drops
// it once Attached shows another attach since.
func (c *Cluster) Attach() (detach func()) {
	c.attached.Add(1)
	c.attaches.Add(1)
	var once sync.Once
	return func() { once.Do(func() { c.attached.Add(-1) }) }
}

// Attached reports how many Attach calls were ever made and how many
// engines are attached now. It reads the first count before the second,
// so an attach it misses in one shows in the other's next read.
func (c *Cluster) Attached() (attaches uint64, now int64) {
	attaches = c.attaches.Load()
	return attaches, c.attached.Load()
}

// KillNode simulates a crash of the named node.
func (c *Cluster) KillNode(name string) {
	if n := c.nodes[name]; n != nil {
		n.SetDown(true)
		c.ring.Disable(name)
	}
}

// ReviveNode brings a crashed node back with every row it
// acknowledged, flushed or not.
func (c *Cluster) ReviveNode(name string) {
	if n := c.nodes[name]; n != nil {
		n.SetDown(false)
		c.ring.Enable(name)
	}
}

func (c *Cluster) jitter() time.Duration {
	if c.cfg.RTTJitter <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(c.cfg.RTTJitter)))
}

// kthFastest returns the k-th smallest latency: with replicas contacted
// in parallel, an operation completes when the k-th ack arrives. It
// sorts lat in place; there are at most a replica set's worth.
func kthFastest(lat []time.Duration, k int) time.Duration {
	for i := 1; i < len(lat); i++ {
		for j := i; j > 0 && lat[j] < lat[j-1]; j-- {
			lat[j], lat[j-1] = lat[j-1], lat[j]
		}
	}
	if k > len(lat) {
		k = len(lat)
	}
	if k <= 0 {
		return 0
	}
	return lat[k-1]
}

// Put writes value at <key, column> to the row's replica set, waiting
// for the number of acknowledgements the consistency level requires.
// It returns the simulated operation latency.
func (c *Cluster) Put(key, column string, value []byte, ttl time.Duration, level Consistency) (time.Duration, error) {
	return c.each(key, column, level, func(n *Node) error { return n.Put(key, column, value, ttl) })
}

// Delete tombstones <key, column> at the required consistency.
func (c *Cluster) Delete(key, column string, level Consistency) (time.Duration, error) {
	return c.each(key, column, level, func(n *Node) error { return n.Delete(key, column) })
}

// each applies op to every replica of <key, column> and succeeds once
// the consistency level's count of them has, returning the simulated
// latency of the slowest replica it waited for.
func (c *Cluster) each(key, column string, level Consistency, op func(*Node) error) (time.Duration, error) {
	var buf [stackReplicas]string
	var lbuf [stackReplicas]time.Duration
	lats := lbuf[:0]
	need := level.required(c.cfg.ReplicationFactor)
	for _, name := range c.replicas(buf[:0], key, column) {
		if err := op(c.nodes[name]); err != nil {
			continue
		}
		lats = append(lats, c.cfg.NetworkRTT+c.jitter())
	}
	if len(lats) < need {
		return 0, fmt.Errorf("%w: got %d acks, need %d", ErrUnavailable, len(lats), need)
	}
	return kthFastest(lats, need), nil
}

// PutBatch writes all entries as one multi-put. Entries are grouped by
// replica node and each node applies its group under a single lock and
// commit-log append (Node.PutBatch); replica groups are contacted in
// parallel, so the batch latency is the slowest node's latency, not the
// sum over entries. The batch succeeds when every entry has the number
// of acknowledgements the consistency level requires; otherwise the
// first under-replicated entry is reported (writes that did land are
// not rolled back, matching per-entry Put semantics). Grouping costs a
// fixed number of allocations per batch, whatever its size; PutBatchWith
// costs none once its scratch has grown.
func (c *Cluster) PutBatch(entries []BatchEntry, level Consistency) (time.Duration, error) {
	return c.PutBatchWith(new(BatchScratch), entries, level)
}

// BatchScratch is the working memory of a multi-put: its replica
// groups, the one backing array the groups' entries are windows of, and
// the acknowledgements per entry. It keeps its capacity between calls
// and nothing of a batch once the call returns.
type BatchScratch struct {
	groups []batchGroup
	all    []BatchEntry
	idx    []int
	acks   []int
}

// batchGroup is one replica node's share of a batch.
type batchGroup struct {
	name    string
	n       int
	entries []BatchEntry
	idx     []int
}

// group returns the group of node name, adding it if it has none yet.
func (sc *BatchScratch) group(name string) *batchGroup {
	for i := range sc.groups {
		if sc.groups[i].name == name {
			return &sc.groups[i]
		}
	}
	sc.groups = append(sc.groups, batchGroup{name: name})
	return &sc.groups[len(sc.groups)-1]
}

// PutBatchWith is PutBatch in the caller's scratch, which one call uses
// at a time.
func (c *Cluster) PutBatchWith(sc *BatchScratch, entries []BatchEntry, level Consistency) (time.Duration, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	need := level.required(c.cfg.ReplicationFactor)
	// Count each node's share first, so that every group is a window of
	// one backing array.
	sc.groups = sc.groups[:0]
	var buf [stackReplicas]string
	total := 0
	for _, e := range entries {
		for _, name := range c.replicas(buf[:0], e.Key, e.Column) {
			sc.group(name).n++
			total++
		}
	}
	// Sorted node order keeps the jitter sequence deterministic.
	slices.SortFunc(sc.groups, func(a, b batchGroup) int { return strings.Compare(a.name, b.name) })
	sc.all, sc.idx = slices.Grow(sc.all[:0], total)[:total], slices.Grow(sc.idx[:0], total)[:total]
	all, idx := sc.all, sc.idx
	for i := range sc.groups {
		g := &sc.groups[i]
		g.entries, all = all[:0:g.n], all[g.n:]
		g.idx, idx = idx[:0:g.n], idx[g.n:]
	}
	for i, e := range entries {
		for _, name := range c.replicas(buf[:0], e.Key, e.Column) {
			g := sc.group(name)
			g.entries = append(g.entries, e)
			g.idx = append(g.idx, i)
		}
	}
	sc.acks = slices.Grow(sc.acks[:0], len(entries))[:len(entries)]
	clear(sc.acks)
	var maxLat time.Duration
	for _, g := range sc.groups {
		if err := c.nodes[g.name].PutBatch(g.entries); err != nil {
			continue
		}
		for _, i := range g.idx {
			sc.acks[i]++
		}
		if lat := c.cfg.NetworkRTT + c.jitter(); lat > maxLat {
			maxLat = lat
		}
	}
	// The scratch must not keep the batch's keys and values alive.
	clear(sc.all)
	for i, a := range sc.acks {
		if a < need {
			return maxLat, fmt.Errorf("%w: batch entry %d (%s/%s) got %d acks, need %d",
				ErrUnavailable, i, entries[i].Key, entries[i].Column, a, need)
		}
	}
	return maxLat, nil
}

// Get reads <key, column> from enough replicas to satisfy the
// consistency level and answers with the newest version among the
// replies, last write wins: the reply with the latest write time,
// whether it is a live row, a tombstone or an expired row. A dead
// newest version reads as absent, however many older live ones
// answered. Stale replicas are read-repaired with it. The boolean
// reports whether a live row was found. A read that finds nothing
// allocates nothing while the replica set fits stackReplicas.
func (c *Cluster) Get(key, column string, level Consistency) ([]byte, bool, time.Duration, error) {
	var buf [stackReplicas]string
	reps := c.replicas(buf[:0], key, column)
	need := level.required(c.cfg.ReplicationFactor)

	type reply struct {
		node  *Node
		value []byte
		row   lsm.Row
		found bool
	}
	var rbuf [stackReplicas]reply
	var lbuf [stackReplicas]time.Duration
	replies, lats := rbuf[:0], lbuf[:0]
	for _, name := range reps {
		n := c.nodes[name]
		v, row, found, err := n.Get(key, column)
		if err != nil {
			continue
		}
		replies = append(replies, reply{n, v, row, found})
		lats = append(lats, c.cfg.NetworkRTT+c.jitter())
		if len(replies) == need {
			break
		}
	}
	if len(replies) < need {
		return nil, false, 0, fmt.Errorf("%w: got %d replies, need %d", ErrUnavailable, len(replies), need)
	}
	// The newest version wins; on a tie a dead one does, as a deletion
	// stamped in the same instant as a write shadows it on one replica.
	best := 0
	for i := 1; i < len(replies); i++ {
		r, b := &replies[i].row, &replies[best].row
		if r.WriteTime.After(b.WriteTime) || (r.WriteTime.Equal(b.WriteTime) && !replies[i].found && replies[best].found) {
			best = i
		}
	}
	winner := replies[best]
	// Read repair: copy the newest version, write time and TTL as
	// stored (a tombstone or an expired row too, so the stale replica
	// stops serving the version it shadows), to replicas whose version
	// is older. An absent row has the zero write time, so nothing found
	// anywhere repairs nothing. Repair is best effort: a replica that
	// misses it is repaired by a later read.
	for _, r := range replies {
		if r.row.WriteTime.Before(winner.row.WriteTime) {
			w := winner.row
			r.node.write([]BatchEntry{{Key: key, Column: column, Value: w.Value, TTL: w.TTL}}, w.Tombstone, w.WriteTime)
		}
	}
	lat := kthFastest(lats, need)
	if !winner.found {
		return nil, false, lat, nil
	}
	return winner.value, true, lat, nil
}

// FlushAll forces every node's memtable to disk, and reports every
// node's failure.
func (c *Cluster) FlushAll() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.Flush())
	}
	return errors.Join(errs...)
}

// CompactAll forces a full compaction on every node, and reports every
// node's failure.
func (c *Cluster) CompactAll() error {
	var errs []error
	for _, n := range c.nodes {
		errs = append(errs, n.Compact())
	}
	return errors.Join(errs...)
}

// TotalStats sums node statistics across the cluster.
func (c *Cluster) TotalStats() NodeStats {
	var total NodeStats
	for _, n := range c.nodes {
		s := n.Stats()
		total.MemtableRows += s.MemtableRows
		total.MemtableBytes += s.MemtableBytes
		total.SSTables += s.SSTables
		total.SSTableBytes += s.SSTableBytes
		total.Flushes += s.Flushes
		total.Compactions += s.Compactions
		total.Reads += s.Reads
		total.ReadsFromMem += s.ReadsFromMem
		total.SSTableProbes += s.SSTableProbes
		total.BloomSkips += s.BloomSkips
		total.ExpiredDropped += s.ExpiredDropped
		total.Durable = total.Durable || s.Durable
		total.Fsyncs += s.Fsyncs
		total.DiskBytesWritten += s.DiskBytesWritten
		total.DiskBytesRead += s.DiskBytesRead
		total.WALBytes += s.WALBytes
		total.CompactionBacklog += s.CompactionBacklog
	}
	return total
}

// LiveRows sums Node.LiveRows over the cluster's nodes, so a row counts
// once per replica holding it.
func (c *Cluster) LiveRows() (int, error) {
	total := 0
	for _, n := range c.nodes {
		live, err := n.LiveRows()
		if err != nil {
			return 0, err
		}
		total += live
	}
	return total, nil
}

// Scan calls fn for every live row with the given column on any node,
// deduplicated by key (newest write wins is not enforced here; Scan is
// a debugging/bulk-export aid mirroring the paper's "large-volume row
// reads from the durable key-value store").
func (c *Cluster) Scan(column string, fn func(key string, value []byte)) error {
	return c.ScanUntil(column, func(k string, v []byte) bool {
		fn(k, v)
		return true
	})
}

// ScanUntil is Scan with early termination: it stops (across all
// nodes) as soon as fn returns false. fn runs outside every store lock.
// The first node whose scan fails ends the scan with its error: the
// rows seen so far are not the column.
func (c *Cluster) ScanUntil(column string, fn func(key string, value []byte) bool) error {
	var seen map[string]bool
	if len(c.nodes) > 1 { // one node's scan holds each key once already
		seen = make(map[string]bool)
	}
	more := true
	for _, name := range c.Nodes() {
		if !more {
			return nil
		}
		err := c.nodes[name].ScanUntil(column, func(k string, v []byte) bool {
			if seen != nil {
				if seen[k] {
					return true
				}
				seen[k] = true
			}
			more = fn(k, v)
			return more
		})
		if err != nil {
			return fmt.Errorf("kvstore: scan %s on %s: %w", column, name, err)
		}
	}
	return nil
}
