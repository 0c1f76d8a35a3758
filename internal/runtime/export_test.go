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
