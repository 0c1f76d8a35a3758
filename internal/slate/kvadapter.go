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

	// spare holds the SaveBatch scratch not in use, under spareMu: one
	// per save that has been in flight at once. A scratch keeps its
	// capacity for as long as the store lives, up to spareBytes of
	// framed values, where a sync.Pool would drop it at every other GC.
	spareMu sync.Mutex
	spare   []*saveScratch
}

// saveScratch is the reusable working memory of one SaveBatch call:
// the encode buffer all framed values are appended to, the batch entry
// slice, the per-record offsets into the buffer, and the cluster's
// grouping of the batch. The cluster copies values synchronously at
// each replica node, so it is reused as soon as the call returns.
type saveScratch struct {
	buf     []byte
	entries []kvstore.BatchEntry
	offs    []int
	batch   kvstore.BatchScratch
}

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
// per batch, not per slate. All records are framed into one buffer of
// the store's scratch (offsets recorded first, values sliced after the
// final append, since buffer growth would invalidate earlier
// subslices).
func (s *KVStore) SaveBatch(recs []BatchRecord) error {
	sc := s.scratch()
	defer s.release(sc)
	buf, offs, entries := sc.buf[:0], sc.offs[:0], sc.entries[:0]
	for _, r := range recs {
		offs = append(offs, len(buf))
		buf = AppendEncode(buf, r.Value)
	}
	offs = append(offs, len(buf))
	for i, r := range recs {
		v := buf[offs[i]:offs[i+1]:offs[i+1]]
		entries = append(entries, kvstore.BatchEntry{Key: r.K.Key, Column: r.K.Updater, Value: v, TTL: r.TTL})
	}
	_, err := s.Cluster.PutBatchWith(&sc.batch, entries, s.Level)
	// The kept entries must not keep the keys: each is a slice of its
	// cache entry's block.
	clear(entries)
	sc.buf, sc.offs, sc.entries = buf, offs, entries
	return err
}

// scratch takes a spare SaveBatch scratch, or a new one.
func (s *KVStore) scratch() *saveScratch {
	s.spareMu.Lock()
	defer s.spareMu.Unlock()
	n := len(s.spare)
	if n == 0 {
		return new(saveScratch)
	}
	sc := s.spare[n-1]
	s.spare = s.spare[:n-1]
	return sc
}

// spareBytes is the most framed-value room a spare SaveBatch scratch
// keeps: a larger one (a batch of large slates) is left to the GC
// rather than kept for the store's life.
const spareBytes = 256 << 10

// release gives a SaveBatch scratch back.
func (s *KVStore) release(sc *saveScratch) {
	if cap(sc.buf) > spareBytes {
		return
	}
	s.spareMu.Lock()
	s.spare = append(s.spare, sc)
	s.spareMu.Unlock()
}
