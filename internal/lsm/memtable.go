package lsm

import (
	"slices"
	"strings"
	"unsafe"
)

// memtable is the engine's in-memory run: the newest version of every
// key written since the last flush. It keeps its key order
// incrementally, so a scan or a flush sorts only the keys that are new
// since the previous one; an overwrite of a key already present — the
// common write — changes no order at all. Its rows' buffers follow the
// private-buffer rule of the package doc: get and sorted(true) hand
// them out.
type memtable struct {
	rows  []memRow       // one per key, in the order the keys arrived
	index map[string]int // key → its position in rows
	order []int          // positions in rows, sorted by key; excludes fresh
	fresh []int          // positions of keys that arrived since order was merged
	spare []int          // the previous order's storage, reused by the next merge
	bytes int64
}

// memRow is a memtable row; shared marks one whose buffer has been
// handed out.
type memRow struct {
	Row
	shared bool
}

func newMemtable() *memtable { return &memtable{index: make(map[string]int)} }

// put applies r, newest write time wins, copying what it keeps. An
// overwrite rewrites a private row's value in place when it fits;
// otherwise the row gets a new buffer and the index is re-keyed with
// its key string, so the replaced buffer is not kept by the index.
func (m *memtable) put(r Row) {
	i, ok := m.index[r.Key]
	if !ok {
		r = owned(r)
		m.index[r.Key] = len(m.rows)
		m.fresh = append(m.fresh, len(m.rows))
		m.rows = append(m.rows, memRow{Row: r})
		m.bytes += rowMemBytes(r)
		return
	}
	old := &m.rows[i]
	if r.WriteTime.Before(old.WriteTime) {
		return
	}
	m.bytes += rowMemBytes(r) - rowMemBytes(old.Row)
	switch {
	case len(r.Value) == 0:
		r.Key, r.Value = old.Key, nil
	case !old.shared && len(r.Value) <= cap(old.Value):
		r.Key, r.Value = old.Key, append(old.Value[:0], r.Value...)
	default:
		r = owned(r)
		m.index[r.Key] = i
		old.shared = false
	}
	old.Row = r
}

// owned returns r with its key and value copied into one new buffer,
// the key first; the value's capacity runs to the end of the buffer,
// with a quarter again of room, so a value that grows a little is
// still rewritten in place. An empty value is stored as nil.
func owned(r Row) Row {
	buf := slices.Grow([]byte(nil), len(r.Key)+len(r.Value)+len(r.Value)/4)
	buf = append(buf, r.Key...)
	r.Key = unsafe.String(unsafe.SliceData(buf), len(r.Key))
	if len(r.Value) > 0 {
		r.Value = append(buf[len(buf):], r.Value...)
	} else {
		r.Value = nil
	}
	return r
}

func rowMemBytes(r Row) int64 { return int64(len(r.Key) + len(r.Value) + 48) }

// get returns key's row, handing its buffer out.
func (m *memtable) get(key string) (Row, bool) {
	i, ok := m.index[key]
	if !ok {
		return Row{}, false
	}
	m.rows[i].shared = true
	return m.rows[i].out(), true
}

// out is the row as the memtable hands it out: its value clipped to
// its length, so a holder's append cannot reach the buffer's room.
func (r *memRow) out() Row {
	row := r.Row
	row.Value = slices.Clip(row.Value)
	return row
}

func (m *memtable) len() int { return len(m.rows) }

// sorted returns a copy of the rows in ascending key order. Only the
// fresh keys are sorted; they are then merged into the kept order.
// share hands the rows' buffers out, for a snapshot whose values reach
// a caller outside the engine lock; without it the next put may
// rewrite the values, and only the rest of each row is a snapshot.
func (m *memtable) sorted(share bool) []Row {
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
		if share {
			m.rows[i].shared = true
		}
		out[j] = m.rows[i].out()
	}
	return out
}
