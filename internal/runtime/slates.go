package runtime

import (
	"bytes"
	"fmt"

	"muppet/internal/engine"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// cellAt returns the hosted cell serving an address on a machine; nil
// when another node hosts the machine.
func (r *Runtime) cellAt(machine, address string) *Cell {
	for _, c := range r.byMachine[machine] {
		if c.serves(address) {
			return c
		}
	}
	return nil
}

// owns reports whether c owns the <fn, key> whose RouteHash is h on the
// current ring: the owner is c's machine and an address c serves.
func (r *Runtime) owns(c *Cell, fn string, h uint64) bool {
	machine, address := r.disp.RouteOf(fn, h)
	return machine == c.Machine && c.serves(address)
}

// Slate returns the current slate for <updater, key>, reading the
// owning cell's cache (and falling through to the durable store on a
// miss); nil if no slate exists. The HTTP slate-fetch service resolves
// slates the same way. When the owner is hosted by another node, the
// local read falls back to the shared durable store (the authoritative
// copy lags the owner's cache by at most one flush interval); without
// a store it returns nil — query the owning node.
func (r *Runtime) Slate(updater, key string) []byte {
	machine, address := r.disp.Route(updater, key)
	if machine == "" {
		return nil
	}
	k := slate.Key{Updater: updater, Key: key}
	if c := r.cellAt(machine, address); c != nil {
		v, _ := c.Cache.Get(k)
		return v
	}
	if st := r.slateStore(); st != nil {
		v, _, _ := st.Load(k)
		return bytes.Clone(v) // v is the store's own memory
	}
	return nil
}

// Slates returns all cached slates of an updater merged across cells
// (cache contents only; evicted slates must be read through Slate).
func (r *Runtime) Slates(updater string) map[string][]byte {
	out := make(map[string][]byte)
	for _, c := range r.cells {
		for _, k := range c.Cache.Keys() {
			if k.Updater != updater {
				continue
			}
			if v, ok := c.Cache.Peek(k); ok {
				out[k.Key] = v
			}
		}
	}
	return out
}

// StoredSlates bulk-reads all of an updater's slates from the durable
// key-value store (the "large-volume row reads" path of Section 5).
// It returns nil when the engine runs without persistence. Callers
// should flush first if they need the newest state; the cache, not the
// store, is the up-to-date view (Section 4.4).
func (r *Runtime) StoredSlates(updater string) map[string][]byte {
	if r.cfg.Store == nil {
		return nil
	}
	out := make(map[string][]byte)
	// A scan that fails returns the rows it reached: this bulk export
	// has no error to return, unlike Query.
	_ = r.cfg.Store.Scan(updater, func(key string, stored []byte) {
		raw, err := slate.Decode(stored)
		if err != nil {
			return
		}
		out[key] = raw
	})
	return out
}

// FlushSlates forces every dirty cached slate to the durable store.
func (r *Runtime) FlushSlates() {
	for _, c := range r.cells {
		c.Cache.FlushDirty()
	}
}

// Stats snapshots the engine counters.
func (r *Runtime) Stats() engine.Stats { return r.counters.Snapshot() }

// Counters exposes the live counters the strategies feed.
func (r *Runtime) Counters() *engine.Counters { return r.counters }

// cacheStats aggregates slate-cache statistics across every cell; the
// registry exposes them as the muppet_slate_* family.
func (r *Runtime) cacheStats() slate.CacheStats {
	var total slate.CacheStats
	for _, c := range r.cells {
		total.Add(c.Cache.Stats())
	}
	return total
}

// FlushStats aggregates the caches' group-commit counters (flush
// rounds, batches, records, failed batches).
func (r *Runtime) FlushStats() slate.FlushStats {
	var total slate.FlushStats
	for _, c := range r.cells {
		total.Add(c.Cache.FlushStats())
	}
	return total
}

// eachQueue visits every hosted queue's lifetime statistics (queues
// retired by crash/revive cycles folded in).
func (r *Runtime) eachQueue(visit func(c *Cell, i int, s queue.Stats)) {
	for _, c := range r.cells {
		for i := range c.Queues {
			visit(c, i, c.Queues[i].Stats())
		}
	}
}

// QueueStats returns per-queue statistics keyed by "cell-name/index".
func (r *Runtime) QueueStats() map[string]queue.Stats {
	out := make(map[string]queue.Stats)
	r.eachQueue(func(c *Cell, i int, s queue.Stats) {
		out[fmt.Sprintf("%s/%d", c.Name(), i)] = s
	})
	return out
}

// aggregateQueueStats folds every queue's counters into one engine-wide
// view.
func (r *Runtime) aggregateQueueStats() queue.Stats {
	var total queue.Stats
	r.eachQueue(func(_ *Cell, _ int, s queue.Stats) { total.Add(s) })
	return total
}

// MachineAccepted returns the number of deliveries accepted per
// machine, the load-balance signal the scaling experiment reports.
func (r *Runtime) MachineAccepted() map[string]uint64 {
	out := make(map[string]uint64)
	r.eachQueue(func(c *Cell, _ int, s queue.Stats) { out[c.Machine] += s.Accepted })
	return out
}

// AcceptedPerQueue returns the accepted-delivery count of every queue.
func (r *Runtime) AcceptedPerQueue() []uint64 {
	var out []uint64
	r.eachQueue(func(_ *Cell, _ int, s queue.Stats) { out = append(out, s.Accepted) })
	return out
}

// LargestQueues returns the depth of the most loaded queue per hosted
// machine, the figure the paper's status endpoint reports ("the event
// count of the largest event queues"). A node answers only for the
// machines it hosts.
func (r *Runtime) LargestQueues() map[string]int {
	out := make(map[string]int)
	for _, name := range r.clu.LocalNames() {
		out[name] = 0
	}
	for _, c := range r.cells {
		for i := range c.Queues {
			if l := c.Queues[i].Queue().Len(); l > out[c.Machine] {
				out[c.Machine] = l
			}
		}
	}
	return out
}
