package runtime

import "muppet/internal/slate"

// CacheOf exposes the slate cache of the hosted cell owning <fn, key>,
// so a test can stage a group-commit batch in its WAL.
func (r *Runtime) CacheOf(fn, key string) *slate.Sharded {
	return r.cellAt(r.disp.Route(fn, key)).Cache
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
