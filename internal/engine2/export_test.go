package engine2

import "muppet/internal/slate"

// SlateCached returns the slate only if it is resident in the owning
// machine's cache (no store fallback), with its residency flag. A
// remotely hosted owner has no local cache: (nil, false).
func (e *Engine) SlateCached(updater, key string) ([]byte, bool) {
	m := e.machines[e.ring.LookupRoute(updater, key)]
	if m == nil {
		return nil, false
	}
	return m.Cache.Peek(slate.Key{Updater: updater, Key: key})
}
