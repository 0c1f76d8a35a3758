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
// common write — changes no order at all. Its rows' buffers are slots
// carved from chunks it owns (carve) and follow the private-buffer rule
// of the package doc: get and sorted(true) hand them out.
type memtable struct {
	rows  []memRow       // one per key, in the order the keys arrived
	index map[string]int // key → its position in rows
	order []int          // positions in rows, sorted by key; excludes fresh
	fresh []int          // positions of keys that arrived since order was merged
	spare []int          // the previous order's storage, reused by the next merge
	chunk []byte         // the unused tail of the chunk slots are carved from
	// bytes is the memtable's size for the flush trigger: every slot
	// carved, the ones rows have since left included, and rowOverhead a
	// row.
	bytes int64
}

// memRow is a memtable row; shared marks one whose buffer has been
// handed out.
type memRow struct {
	Row
	shared bool
}

func newMemtable() *memtable { return &memtable{index: make(map[string]int)} }

// put applies r, newest write time wins, copying what it keeps. A new
// key gets a slot for its key and value (own). An overwrite rewrites a
// private row's value in place when it fits; otherwise the value gets a
// slot of its own and the row keeps its key, whose bytes never change.
func (m *memtable) put(r Row) {
	i, ok := m.index[r.Key]
	if !ok {
		r = m.own(r)
		m.index[r.Key] = len(m.rows)
		m.fresh = append(m.fresh, len(m.rows))
		m.rows = append(m.rows, memRow{Row: r})
		m.bytes += rowOverhead
		return
	}
	old := &m.rows[i]
	if r.WriteTime.Before(old.WriteTime) {
		return
	}
	switch {
	case len(r.Value) == 0:
		r.Value = nil
	case !old.shared && len(r.Value) <= cap(old.Value):
		r.Value = append(old.Value[:0], r.Value...)
	default:
		r.Value = append(m.carve(grown(len(r.Value))), r.Value...)
		old.shared = false
	}
	r.Key = old.Key
	old.Row = r
}

// own returns r with its key and value copied into one new slot, the
// key first; the value's capacity runs to the end of the slot, so a
// value that grows a little is still rewritten in place. An empty
// value is stored as nil.
func (m *memtable) own(r Row) Row {
	buf := append(m.carve(len(r.Key)+grown(len(r.Value))), r.Key...)
	r.Key = unsafe.String(unsafe.SliceData(buf), len(r.Key))
	if len(r.Value) > 0 {
		r.Value = append(buf[len(buf):], r.Value...)
	} else {
		r.Value = nil
	}
	return r
}

// grown is the room a slot keeps for an n-byte value: a quarter again,
// and never less than what a small record's first rewrites add (a
// slate's number gaining digits).
func grown(n int) int {
	if n == 0 {
		return 0
	}
	return n + max(n/4, 16)
}

// rowOverhead is what bytes counts for a row besides its slot: its
// place in rows and in the index.
const rowOverhead = 48

// chunkBytes is the size of the chunks slots are carved from, and
// maxSlot the largest slot carved: a larger one is a buffer of its own.
const (
	chunkBytes = 8 << 10
	maxSlot    = 512
)

// carve returns an empty buffer with room for at least n bytes: the
// next slot of the memtable's chunk, rounded up a ladder of sizes each
// at most half again the one below. A chunk too short for the slot is
// left for a new one. No slot is carved twice, so what is written in
// one is its row's alone, and bytes still counts it once the row has
// left it. A slot keeps its whole chunk alive.
func (m *memtable) carve(n int) []byte {
	n = slotSize(n)
	m.bytes += int64(n)
	if n > maxSlot {
		return make([]byte, 0, n)
	}
	if n > len(m.chunk) {
		m.chunk = make([]byte, chunkBytes)
	}
	b := m.chunk[:0:n]
	m.chunk = m.chunk[n:]
	return b
}

// slotSize rounds n up the ladder of slot sizes.
func slotSize(n int) int {
	for _, size := range [...]int{16, 32, 48, 64, 96, 128, 192, 256, 384, maxSlot} {
		if n <= size {
			return size
		}
	}
	return n
}

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
