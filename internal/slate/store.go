package slate

import "time"

// BatchRecord is one slate a save carries to the store: one of a
// group-commit flush batch, or the one record of a write-through or
// eviction save.
type BatchRecord struct {
	K     Key
	Value []byte
	TTL   time.Duration
	// e is the cache entry the record was taken from, settled when the
	// save returns (Sharded.settleChunk); nil for a record built outside
	// the cache.
	e *entry
}

// The kvstore adapter is the production Store.
var _ Store = (*KVStore)(nil)
