package wal

import (
	"sync"
	"time"
)

// SlateRecord is one slate write inside a group-commit batch.
type SlateRecord struct {
	// Updater and Key identify the slate (row Key, column Updater in
	// the store's layout).
	Updater string
	Key     string
	// Value is the raw (uncompressed) slate at flush time.
	Value []byte
	// TTL is the slate's shelf life; zero means forever.
	TTL time.Duration
}

// slateBatch is one retained batch with its sequence number.
type slateBatch struct {
	seq  uint64
	recs []SlateRecord
}

// SlateBatchLog is an append-only log of group-commit flush batches.
// It is safe for concurrent use.
type SlateBatchLog struct {
	mu      sync.Mutex
	batches []slateBatch
	seq     uint64 // batches appended over the log's lifetime
	records uint64
}

// NewSlateBatchLog returns an empty batch log.
func NewSlateBatchLog() *SlateBatchLog {
	return &SlateBatchLog{}
}

// AppendBatch records one flush batch and returns its 1-based batch
// sequence number. The records (and their values) are copied, so the
// caller may reuse its buffers.
func (l *SlateBatchLog) AppendBatch(recs []SlateRecord) uint64 {
	cp := make([]SlateRecord, len(recs))
	for i, r := range recs {
		r.Value = append([]byte(nil), r.Value...)
		cp[i] = r
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	l.batches = append(l.batches, slateBatch{seq: l.seq, recs: cp})
	l.records += uint64(len(cp))
	return l.seq
}

// AbortBatch drops the batch with the given sequence number, if still
// retained. The group-commit flusher calls it when the store write for
// an appended batch fails: the records stay dirty in the cache and
// will be re-appended by the retry flush, so keeping the failed
// attempt would only duplicate them (unbounded growth across a long
// store outage).
func (l *SlateBatchLog) AbortBatch(seq uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, b := range l.batches {
		if b.seq == seq {
			l.batches = append(l.batches[:i], l.batches[i+1:]...)
			l.records -= uint64(len(b.recs))
			return
		}
	}
}

// Replay calls fn for every record in append order — within a batch,
// records replay in their batch order; across batches, oldest first.
// Later writes of the same slate therefore overwrite earlier ones,
// reconstructing the store's final flushed state. Replay stops at the
// first error and returns it along with the number of records applied.
func (l *SlateBatchLog) Replay(fn func(SlateRecord) error) (int, error) {
	l.mu.Lock()
	snapshot := make([]slateBatch, len(l.batches))
	copy(snapshot, l.batches)
	l.mu.Unlock()
	applied := 0
	for _, batch := range snapshot {
		for _, r := range batch.recs {
			if err := fn(r); err != nil {
				return applied, err
			}
			applied++
		}
	}
	return applied, nil
}

// Truncate discards all recorded batches (a checkpoint: the store is
// known durable up to here). Lifetime counters are preserved.
func (l *SlateBatchLog) Truncate() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.batches = nil
}

// Stats reports the lifetime batch count, the record count net of
// aborted batches, and the number of batches currently retained.
func (l *SlateBatchLog) Stats() (batches, records uint64, retained int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq, l.records, len(l.batches)
}
