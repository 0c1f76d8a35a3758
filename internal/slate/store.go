package slate

import "time"

// BatchRecord is one slate inside a group-commit flush batch.
type BatchRecord struct {
	K     Key
	Value []byte
	TTL   time.Duration
}

// BatchStore is a Store that can persist a whole flush batch as one
// multi-put. The group-commit flusher uses SaveBatch when the backing
// store provides it, paying the store round-trip once per batch instead
// of once per slate.
type BatchStore interface {
	Store
	// SaveBatch persists every record; partial failure may leave some
	// records written (per-record Save semantics apply to each). Like
	// Save, it must not keep a record's Value after it returns.
	SaveBatch(recs []BatchRecord) error
}

// The kvstore adapter satisfies the batch flush path.
var _ BatchStore = (*KVStore)(nil)
