package slate

// Test-only views of a Sharded store.

// DirtyCount reports the number of dirty cached slates.
func (s *Sharded) DirtyCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		for e := sh.dirty.dnext; e != &sh.dirty; e = e.dnext {
			n++
		}
		sh.mu.Unlock()
	}
	return n
}

// ShardSizes reports each shard's resident slate count, the
// distribution signal the shard-balance test asserts on.
func (s *Sharded) ShardSizes() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.Lock()
		out[i] = len(sh.items)
		sh.mu.Unlock()
	}
	return out
}
