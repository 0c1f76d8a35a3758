package runtime

import (
	"log"

	"muppet/internal/event"
	"muppet/internal/recovery"
	"muppet/internal/slate"
)

// CrashMachine simulates a machine failure with the stock §4.3
// disposition, via the recovery subsystem: the machine stops accepting
// events, and every queued event and dirty slate on it is lost (and
// logged). A group commit under way is
// in the store before CrashMachine returns. Detection is left to the
// next failed send. An unknown machine is a (0, 0) no-op.
func (r *Runtime) CrashMachine(machine string) (lostQueued, lostDirtySlates int) {
	if r.clu.Machine(machine) == nil {
		return 0, 0
	}
	rep := r.rec.Crash(machine)
	return rep.QueuedLost, rep.DirtyLost
}

// RejoinMachine revives a crashed machine through the recovery
// subsystem: its cells restart on fresh queues, the ring re-enables it,
// and its slate caches are warmed from the durable store.
func (r *Runtime) RejoinMachine(machine string) (recovery.RejoinReport, error) {
	return r.rec.Rejoin(machine)
}

// RecoveryStatus snapshots the recovery subsystem: per-machine
// liveness and ring membership, failover/rejoin counters, loss totals,
// and the latest incident reports.
func (r *Runtime) RecoveryStatus() recovery.Status { return r.rec.Status() }

// Recovery exposes the engine's recovery manager, the node's failure
// authority (failure reports, PingAll, detection times).
func (r *Runtime) Recovery() *recovery.Manager { return r.rec }

// recoveryAdapter is the engine-facing surface the recovery manager
// drives (recovery.Adapter), written once over the cells a machine
// hosts; only ring membership is the dispatcher's. Its ring flips are
// the engine's only ones, and each is bracketed for query coverage (see
// coverage); a rejoin also opens a handover, which DropMisplacedSlates
// closes once it has evicted the interim owners' copies — until then one
// of them may still flush a key the rejoined machine owns again.
type recoveryAdapter struct {
	r *Runtime
}

func (a recoveryAdapter) RemoveFromRing(machine string) {
	a.r.cover.flip(func() { a.r.disp.SetRing(machine, false) })
}

func (a recoveryAdapter) RestoreToRing(machine string) {
	a.r.cover.flip(func() {
		a.r.disp.SetRing(machine, true)
		a.r.cover.rejoins.Add(1)
	})
}

func (a recoveryAdapter) RingMembers() map[string]bool { return a.r.disp.RingMembers() }

func (a recoveryAdapter) DrainQueues(machine string, drained func(function string, ev event.Event)) {
	for _, c := range a.r.byMachine[machine] {
		for i := range c.Queues {
			// Drain closes the queue atomically, so the cell's loops exit
			// immediately instead of consuming a backlog a dead machine
			// could never have processed.
			for _, env := range c.Queues[i].Queue().Drain() {
				drained(env.Func, env.Ev)
				a.r.tracker.Dec()
			}
		}
	}
}

func (a recoveryAdapter) AwaitWorkers(machine string) {
	for _, c := range a.r.byMachine[machine] {
		c.loops.Wait()
	}
}

func (a recoveryAdapter) CrashSlates(machine string) (dirtyLost int) {
	for _, c := range a.r.byMachine[machine] {
		dirtyLost += c.Cache.Crash()
	}
	return dirtyLost
}

func (a recoveryAdapter) RestartWorkers(machine string) {
	// Under stopMu: Stop cannot begin (or finish) its wg.Wait while
	// fresh loops are being added, and once Stop has swapped stopped we
	// refuse to start any.
	a.r.stopMu.Lock()
	defer a.r.stopMu.Unlock()
	if a.r.stopped.Load() {
		return
	}
	for _, c := range a.r.byMachine[machine] {
		c.Cache.Revive()
		for i := range c.Queues {
			c.Queues[i].Replace(a.r.newQueue())
		}
		a.r.disp.StartCell(c)
	}
}

func (a recoveryAdapter) FlushSlates() { a.r.FlushSlates() }

// DropMisplacedSlates closes every handover a RestoreToRing opened
// before it started, unless a cell had to keep misplaced entries: then
// they stay open, and no query skips its store pass, until a later
// DropMisplacedSlates succeeds — slower, not wrong.
func (a recoveryAdapter) DropMisplacedSlates() {
	rejoins := a.r.cover.rejoins.Load()
	kept := false
	for _, c := range a.r.cells {
		var misplaced []slate.Key
		for _, k := range c.Cache.Keys() {
			if !a.r.owns(c, k.Updater, a.r.disp.RouteHash(k.Updater, k.Key)) {
				misplaced = append(misplaced, k)
			}
		}
		if len(misplaced) == 0 {
			continue
		}
		// An update that slipped in between the handover flush and the
		// ring flip may have re-dirtied a moved key; persist it before
		// the eviction or the count would silently vanish. If the store
		// is unreachable, keep the entries — a stale-copy hazard beats
		// dropping dirty data, and the next ring change retries.
		if _, err := c.Cache.FlushDirty(); err != nil {
			kept = true
			continue
		}
		for _, k := range misplaced {
			c.Cache.Delete(k)
		}
	}
	if !kept {
		a.r.cover.handOver(rejoins)
	}
}

func (a recoveryAdapter) WarmSlates(machine string, limit int) int {
	if a.r.cfg.Store == nil || len(a.r.byMachine[machine]) == 0 {
		return 0
	}
	// ScanUntil stops at the warm limit rather than sweeping the whole
	// store, and runs its callback outside the store's locks, so each
	// key is loaded as it is found. A scan that fails warms what it
	// reached — a cold cache is only slower.
	tried, warmed := 0, 0
	for _, updater := range a.r.app.Updaters() {
		if tried >= limit {
			break
		}
		err := a.r.cfg.Store.ScanUntil(updater, func(key string, _ []byte) bool {
			if owner, address := a.r.disp.Route(updater, key); owner == machine {
				c, k := a.r.cellAt(machine, address), slate.Key{Updater: updater, Key: key}
				if _, ok := c.Cache.Peek(k); !ok {
					tried++
					// Get loads through from the store and caches the slate
					// clean — exactly the state a warm cache should be in.
					if v, err := c.Cache.Get(k); err == nil && v != nil {
						warmed++
					}
				}
			}
			return tried < limit
		})
		if err != nil {
			log.Printf("muppet: rejoin of %s: warming %s: %v", machine, updater, err)
		}
	}
	return warmed
}
