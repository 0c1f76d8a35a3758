package runtime

import "muppet/internal/slate"

// CacheOf exposes the slate cache of the hosted cell owning <fn, key>,
// so a test can drive its flushes.
func (r *Runtime) CacheOf(fn, key string) *slate.Sharded {
	return r.cellAt(r.disp.Route(fn, key)).Cache
}

// WrapStoreOf rebuilds the slate cache of the hosted cell owning
// <fn, key> over wrap(the engine's slate store), so a test can hold the
// cell's group commits open. Call it before any event reaches the cell.
func (r *Runtime) WrapStoreOf(fn, key string, wrap func(slate.Store) slate.Store) {
	c := r.cellAt(r.disp.Route(fn, key))
	c.Cache = slate.NewSharded(slate.ShardedConfig{Policy: r.cfg.FlushPolicy, Store: wrap(r.slateStore())})
}

// OwnerMachine reports the machine Route names for <fn, key>.
func (r *Runtime) OwnerMachine(fn, key string) string {
	machine, _ := r.disp.Route(fn, key)
	return machine
}

// CountCacheStatsReads makes every scrape's read of the slate-cache
// snapshot add one to n, until the returned function is called.
func CountCacheStatsReads(n *int) (restore func()) {
	read := slateCacheStats
	slateCacheStats = func(r *Runtime) slate.CacheStats { *n++; return read(r) }
	return func() { slateCacheStats = read }
}
