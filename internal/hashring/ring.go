package hashring

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the number of ring positions per node. More
// virtual nodes smooth the key distribution across nodes.
const DefaultVirtualNodes = 64

// Ring is a consistent hash ring mapping strings to node names. It is
// safe for concurrent use: routing lookups take a read lock, membership
// changes take a write lock.
type Ring struct {
	mu       sync.RWMutex
	vnodes   int
	points   []point // sorted by hash
	nodes    map[string]bool
	disabled map[string]bool
}

type point struct {
	hash uint64
	node string
}

// New returns a ring over the given nodes with vnodes virtual nodes per
// node. If vnodes <= 0, DefaultVirtualNodes is used.
func New(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{
		vnodes:   vnodes,
		nodes:    make(map[string]bool),
		disabled: make(map[string]bool),
	}
	for _, n := range nodes {
		r.addLocked(n)
	}
	return r
}

// Hash is the ring position of a key, the hash Lookup resolves. It is a
// pure function of the key, so a caller may keep it and resolve it later
// with LookupHash against whatever membership the ring has by then.
func Hash(s string) uint64 { return hash64(s) }

func hash64(s string) uint64 {
	var h uint64 = fnvOffset64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return mix(h)
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashPair hashes a routing pair exactly as hash64(a + string(sep) + b)
// would, without materializing the concatenation — the per-delivery
// allocation this saves is pure overhead on the ingress hot path. It
// is exported because engine2's dual-queue dispatch hashes (function,
// key) pairs the same way; the two call sites must not drift.
func HashPair(a string, sep byte, b string) uint64 {
	var h uint64 = fnvOffset64
	for i := 0; i < len(a); i++ {
		h = (h ^ uint64(a[i])) * fnvPrime64
	}
	h = (h ^ uint64(sep)) * fnvPrime64
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime64
	}
	return mix(h)
}

// mix is a splitmix64 finalizer. FNV alone leaves similar inputs (such
// as "machine-03#1", "machine-03#2", ...) clustered on the ring; the
// finalizer scatters them so virtual nodes spread evenly.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (r *Ring) addLocked(node string) {
	if r.nodes[node] {
		return
	}
	r.nodes[node] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, point{hash: hash64(fmt.Sprintf("%s#%d", node, i)), node: node})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Add inserts a node into the ring.
func (r *Ring) Add(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.addLocked(node)
}

// Disable marks a node as failed. Lookups skip disabled nodes, so keys
// owned by the node move to its ring successors. The node's virtual
// points stay on the ring, so re-enabling it restores the exact
// original assignment.
func (r *Ring) Disable(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.nodes[node] {
		r.disabled[node] = true
	}
}

// Enable clears a node's failed mark.
func (r *Ring) Enable(node string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.disabled, node)
}

// Disabled reports whether the node is currently marked failed.
func (r *Ring) Disabled(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.disabled[node]
}

// Lookup returns the live node owning the given key, walking clockwise
// from the key's hash and skipping disabled nodes. It returns "" if the
// ring is empty or every node is disabled.
func (r *Ring) Lookup(key string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookupLocked(key)
}

func (r *Ring) lookupLocked(key string) string {
	return r.lookupHashLocked(hash64(key))
}

// LookupHash is Lookup for a key whose position (Hash, or HashPair for a
// routing pair) the caller already holds.
func (r *Ring) LookupHash(h uint64) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.lookupHashLocked(h)
}

func (r *Ring) lookupHashLocked(h uint64) string {
	n := len(r.points)
	if n == 0 {
		return ""
	}
	i := sort.Search(n, func(i int) bool { return r.points[i].hash >= h })
	for probes := 0; probes < n; probes++ {
		p := r.points[(i+probes)%n]
		if !r.disabled[p.node] {
			return p.node
		}
	}
	return ""
}

// LookupRoute returns the node for an event key destined for a named
// function. The paper routes on the pair <event key, destination
// map/update function>, so distinct functions spread the same key space
// differently. It hashes the pair without concatenating it — this is
// the per-delivery routing step of the ingress hot path.
func (r *Ring) LookupRoute(function, key string) string {
	return r.LookupHash(HashPair(function, 0x00, key))
}

// AppendN appends to dst the first n distinct live nodes clockwise from
// position h and returns the extended slice. The replicated key-value
// store chooses replica sets with it, into a slice it owns: n is a
// replication factor, so a linear search of what was appended dedupes
// virtual nodes without a set, and the lookup allocates nothing when dst
// has room.
func (r *Ring) AppendN(dst []string, h uint64, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := len(r.points)
	if total == 0 || n <= 0 {
		return dst
	}
	base := len(dst)
	i := sort.Search(total, func(i int) bool { return r.points[i].hash >= h })
	for probes := 0; probes < total && len(dst)-base < n; probes++ {
		p := r.points[(i+probes)%total]
		if r.disabled[p.node] || slices.Contains(dst[base:], p.node) {
			continue
		}
		dst = append(dst, p.node)
	}
	return dst
}

// Members reports every node on the ring and whether it is currently
// enabled — the ring-membership view recovery status endpoints expose.
func (r *Ring) Members() map[string]bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]bool, len(r.nodes))
	for n := range r.nodes {
		out[n] = !r.disabled[n]
	}
	return out
}

// Nodes returns the live (enabled) node names in sorted order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for n := range r.nodes {
		if !r.disabled[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Size reports the number of nodes on the ring, including disabled
// ones.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.nodes)
}
