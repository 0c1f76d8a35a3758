package slate

import (
	"sync"

	"muppet/internal/frame"
	"muppet/internal/kvstore"
)

// KVStore adapts the replicated key-value cluster to the Store
// interface, reproducing Muppet's layout: slate S(U,k) is stored at
// row k, column U, framed and compressed (Section 4.2; see the
// storage-framing notes in codec.go and the package doc).
type KVStore struct {
	Cluster *kvstore.Cluster
	// Level is the consistency level for slate reads and writes, a
	// per-application knob in Muppet.
	Level kvstore.Consistency
}

// saveScratch is the reusable working memory of one SaveBatch call:
// the encode buffer all framed values are appended to, the batch entry
// slice, and the per-record offsets into the buffer. The cluster
// copies values synchronously at each replica node, so the buffers can
// be pooled and reused as soon as the call returns.
type saveScratch struct {
	buf     []byte
	entries []kvstore.BatchEntry
	offs    []int
}

var saveScratchPool = sync.Pool{New: func() any { return new(saveScratch) }}

// Load implements Store. A raw row's payload is handed back in place,
// not copied: the cache copies it into its entry's block, and the store
// never rewrites a row it has handed out (a memtable row stays as Get
// found it, and a segment read is fresh memory). Whoever else keeps a
// loaded slate copies it. A deflated row inflates into fresh memory.
func (s *KVStore) Load(k Key) ([]byte, bool, error) {
	v, found, _, err := s.Cluster.Get(k.Key, k.Updater, s.Level)
	if err != nil || !found {
		return nil, false, err
	}
	raw, err := frame.Payload(v)
	if err != nil {
		return nil, false, err
	}
	return raw, true, nil
}

// SaveBatch implements Store: the whole batch goes to the cluster as
// one multi-put, so replica round-trips and commit-log appends are paid
// per batch, not per slate. All records are framed
// into one pooled buffer (offsets recorded first, values sliced after
// the final append, since buffer growth would invalidate earlier
// subslices).
func (s *KVStore) SaveBatch(recs []BatchRecord) error {
	sc := saveScratchPool.Get().(*saveScratch)
	defer saveScratchPool.Put(sc)
	entries := sc.entries[:0]
	if cap(entries) < len(recs) {
		entries = make([]kvstore.BatchEntry, 0, len(recs))
	}
	buf, offs := sc.buf[:0], sc.offs[:0]
	for _, r := range recs {
		offs = append(offs, len(buf))
		buf = AppendEncode(buf, r.Value)
	}
	offs = append(offs, len(buf))
	for i, r := range recs {
		v := buf[offs[i]:offs[i+1]:offs[i+1]]
		entries = append(entries, kvstore.BatchEntry{Key: r.K.Key, Column: r.K.Updater, Value: v, TTL: r.TTL})
	}
	_, err := s.Cluster.PutBatch(entries, s.Level)
	// The pooled entries must not keep the keys: each is a slice of its
	// cache entry's block.
	clear(entries)
	sc.buf, sc.offs, sc.entries = buf, offs, entries
	return err
}
