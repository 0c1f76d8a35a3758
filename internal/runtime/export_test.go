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
	c.Cache = slate.NewSharded(slate.ShardedConfig{Policy: r.cfg.FlushPolicy, Store: wrap(r.slateStore()), RouteHash: r.routeHash})
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

// SkippedStorePasses counts the node-local query passes of machine's
// answered from the caches alone, its coverage record holding.
func (r *Runtime) SkippedStorePasses(machine string) uint64 {
	r.cover.mu.Lock()
	defer r.cover.mu.Unlock()
	return r.cover.skipped[machine]
}

// RemoveFromRing, RestoreToRing and DropMisplacedSlates run one step of
// the recovery protocol on their own, as the recovery manager would.
func (r *Runtime) RemoveFromRing(machine string) { recoveryAdapter{r}.RemoveFromRing(machine) }
func (r *Runtime) RestoreToRing(machine string)  { recoveryAdapter{r}.RestoreToRing(machine) }
func (r *Runtime) DropMisplacedSlates()          { recoveryAdapter{r}.DropMisplacedSlates() }

// CacheEvictions counts the capacity evictions of machine's caches.
func (r *Runtime) CacheEvictions(machine string) uint64 {
	var n uint64
	for _, c := range r.byMachine[machine] {
		n += c.Cache.Stats().Evictions
	}
	return n
}
