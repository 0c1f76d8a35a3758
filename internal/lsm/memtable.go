package lsm

import (
	"slices"
	"strings"
)

// memtable is the engine's in-memory run: the newest version of every
// key written since the last flush. It keeps its key order
// incrementally, so a scan or a flush sorts only the keys that are new
// since the previous one; an overwrite of a key already present — the
// common write — changes no order at all.
type memtable struct {
	rows  []Row          // one per key, in the order the keys arrived
	index map[string]int // key → its position in rows
	order []int          // positions in rows, sorted by key; excludes fresh
	fresh []int          // positions of keys that arrived since order was merged
	spare []int          // the previous order's storage, reused by the next merge
	bytes int64
}

func newMemtable() *memtable { return &memtable{index: make(map[string]int)} }

// put applies r, newest write time wins. An overwrite re-keys the
// index with r's key string too: a row's key may share one allocation
// with its value, and the replaced version must not stay reachable
// through the index.
func (m *memtable) put(r Row) {
	if i, ok := m.index[r.Key]; ok {
		old := &m.rows[i]
		if r.WriteTime.Before(old.WriteTime) {
			return
		}
		m.bytes += rowMemBytes(r) - rowMemBytes(*old)
		*old = r
		m.index[r.Key] = i
		return
	}
	m.index[r.Key] = len(m.rows)
	m.fresh = append(m.fresh, len(m.rows))
	m.rows = append(m.rows, r)
	m.bytes += rowMemBytes(r)
}

func rowMemBytes(r Row) int64 { return int64(len(r.Key) + len(r.Value) + 48) }

func (m *memtable) get(key string) (Row, bool) {
	i, ok := m.index[key]
	if !ok {
		return Row{}, false
	}
	return m.rows[i], true
}

func (m *memtable) len() int { return len(m.rows) }

// sorted returns a copy of the rows in ascending key order: a private
// snapshot later puts do not change. Only the fresh keys are sorted;
// they are then merged into the kept order.
func (m *memtable) sorted() []Row {
	if len(m.fresh) > 0 {
		slices.SortFunc(m.fresh, func(a, b int) int { return strings.Compare(m.rows[a].Key, m.rows[b].Key) })
		merged := m.spare[:0]
		old, fresh := m.order, m.fresh
		for len(old) > 0 && len(fresh) > 0 {
			if m.rows[old[0]].Key < m.rows[fresh[0]].Key {
				merged, old = append(merged, old[0]), old[1:]
			} else {
				merged, fresh = append(merged, fresh[0]), fresh[1:]
			}
		}
		merged = append(append(merged, old...), fresh...)
		m.spare, m.order, m.fresh = m.order, merged, m.fresh[:0]
	}
	out := make([]Row, len(m.order))
	for j, i := range m.order {
		out[j] = m.rows[i]
	}
	return out
}
