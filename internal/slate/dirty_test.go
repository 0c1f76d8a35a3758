package slate

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// logStore is a Store that logs the keys of every SaveBatch, refused
// ones included, and refuses them all while refuse is set.
type logStore struct {
	refuse bool
	data   map[Key][]byte
	calls  [][]string
}

func (s *logStore) Load(k Key) ([]byte, bool, error) { v, ok := s.data[k]; return v, ok, nil }

func (s *logStore) SaveBatch(recs []BatchRecord) error {
	keys := make([]string, len(recs))
	for i, r := range recs {
		keys[i] = r.K.Key
	}
	s.calls = append(s.calls, keys)
	if s.refuse {
		return errors.New("logStore: refused")
	}
	for _, r := range recs {
		s.data[r.K] = append([]byte(nil), r.Value...)
	}
	return nil
}

// cacheModel is a one-shard Interval cache as a few slices: the LRU
// order (most recent first), the dirty list (oldest first), the keys
// the store holds, and the saves the cache is expected to make.
type cacheModel struct {
	capacity  int
	withStore bool
	refuse    bool
	dead      bool
	lru       []string
	dirty     []string
	flushing  map[string]bool
	stored    map[string]bool
	saves     [][]string
	dirtyLost int
	evictions int
}

func (m *cacheModel) resident(k string) bool { return slices.Contains(m.lru, k) }
func (m *cacheModel) isDirty(k string) bool  { return slices.Contains(m.dirty, k) }

func (m *cacheModel) touch(k string) {
	m.lru = slices.DeleteFunc(m.lru, func(x string) bool { return x == k })
	m.lru = slices.Insert(m.lru, 0, k)
}

func (m *cacheModel) markDirty(k string) {
	if !m.isDirty(k) {
		m.dirty = append(m.dirty, k)
	}
}

func (m *cacheModel) clean(k string) {
	m.dirty = slices.DeleteFunc(m.dirty, func(x string) bool { return x == k })
}

func (m *cacheModel) drop(k string) {
	m.lru = slices.DeleteFunc(m.lru, func(x string) bool { return x == k })
	m.clean(k)
}

// save is one SaveBatch of keys; it reports whether the store took it.
func (m *cacheModel) save(keys ...string) bool {
	m.saves = append(m.saves, keys)
	if m.refuse {
		return false
	}
	for _, k := range keys {
		m.stored[k] = true
	}
	return true
}

// evict is evictLocked: the least recently used entry not flushing; a
// dirty one only once saved, and after one refusal clean ones only. A
// refused save puts its entry back at the end of the dirty list.
func (m *cacheModel) evict() bool {
	refused := false
	for i := len(m.lru) - 1; i >= 0; i-- {
		k := m.lru[i]
		if m.flushing[k] {
			continue
		}
		if m.isDirty(k) && m.withStore {
			if refused {
				continue
			}
			m.clean(k)
			if !m.save(k) {
				m.markDirty(k)
				refused = true
				continue
			}
		}
		m.drop(k)
		m.evictions++
		return true
	}
	return false
}

func (m *cacheModel) trim() {
	for len(m.lru) > m.capacity && m.evict() {
	}
}

// put is Put and PutDecoded once the slate is in hand.
func (m *cacheModel) put(k string) {
	if m.dead {
		m.dirtyLost++
		return
	}
	if !m.resident(k) {
		m.lru = slices.Insert(m.lru, 0, k)
	} else {
		m.touch(k)
	}
	m.markDirty(k)
	m.trim()
}

// getDecoded is GetDecoded's effect on the shard: a hit is touched; a
// miss the store has is inserted clean and trimmed; a new slate goes in
// pinned, untrimmed. A dead shard inserts nothing.
func (m *cacheModel) getDecoded(k string) {
	switch {
	case m.resident(k):
		m.touch(k)
	case m.dead:
	case m.withStore && m.stored[k]:
		m.lru = slices.Insert(m.lru, 0, k)
		m.trim()
	default:
		m.lru = slices.Insert(m.lru, 0, k)
	}
}

func (m *cacheModel) flush() {
	if !m.withStore || len(m.dirty) == 0 {
		return
	}
	batch := slices.Clone(m.dirty)
	m.dirty = m.dirty[:0]
	for _, k := range batch {
		m.flushing[k] = true
	}
	ok := m.save(batch...)
	for _, k := range batch {
		delete(m.flushing, k)
		if !ok && m.resident(k) {
			m.markDirty(k)
		}
		m.trim()
	}
}

func (m *cacheModel) crash() {
	m.dirtyLost += len(m.dirty)
	m.lru, m.dirty, m.dead = nil, nil, true
}

// TestDirtyListMatchesModel drives a one-shard Interval cache through a
// seeded mix of Put, PutDecoded, FlushDirty with the store accepting
// and refusing, Delete, capacity evictions, Crash and Revive, with and
// without a store, and checks it against cacheModel after every step:
// DirtyCount, residency, the lost and evicted counts, and the keys —
// in order — of every batch the cache saved, a flush's batch being its
// dirty list oldest first.
func TestDirtyListMatchesModel(t *testing.T) {
	for _, withStore := range []bool{true, false} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("store=%v/seed=%d", withStore, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				st := &logStore{data: map[Key][]byte{}}
				cfg := ShardedConfig{Shards: 1, Capacity: 6, Policy: Interval}
				if withStore {
					cfg.Store = st
				}
				s := NewSharded(cfg)
				m := &cacheModel{capacity: 6, withStore: withStore, flushing: map[string]bool{}, stored: map[string]bool{}}
				c := &countingCodec{}
				for step := 0; step < 4000; step++ {
					key := fmt.Sprintf("k%d", rng.Intn(12))
					op := ""
					switch r := rng.Intn(100); {
					case r < 35:
						op = "put " + key
						s.Put(k("U", key), []byte(strconv.Itoa(step)))
						m.put(key)
					case r < 70:
						op = "putDecoded " + key
						v, err := s.GetDecoded(k("U", key), c)
						if err != nil {
							t.Fatal(err)
						}
						m.getDecoded(key)
						if v == nil {
							v = c.New()
						}
						*v.(*int)++
						if err := s.PutDecoded(k("U", key), v, c); err != nil {
							t.Fatal(err)
						}
						m.put(key)
					case r < 82:
						op = "flush"
						s.FlushDirty()
						m.flush()
					case r < 88:
						op = "delete " + key
						s.Delete(k("U", key))
						m.drop(key)
					case r < 94:
						st.refuse = !st.refuse
						m.refuse = st.refuse
						op = fmt.Sprintf("refuse=%v", st.refuse)
					case r < 96:
						op = "crash"
						s.Crash()
						m.crash()
					default:
						op = "revive"
						s.Revive()
						m.dead = false
					}
					if !slices.EqualFunc(st.calls, m.saves, slices.Equal[[]string]) {
						t.Fatalf("step %d (%s): saves %v, model %v", step, op, st.calls, m.saves)
					}
					stats := s.Stats()
					if s.DirtyCount() != len(m.dirty) || s.Len() != len(m.lru) ||
						stats.DirtyLost != uint64(m.dirtyLost) || stats.Evictions != uint64(m.evictions) {
						t.Fatalf("step %d (%s): dirty %d len %d lost %d evicted %d; model dirty %v lru %v lost %d evicted %d",
							step, op, s.DirtyCount(), s.Len(), stats.DirtyLost, stats.Evictions, m.dirty, m.lru, m.dirtyLost, m.evictions)
					}
					for _, key := range m.lru {
						if _, ok := s.Peek(k("U", key)); !ok {
							t.Fatalf("step %d (%s): %s not resident", step, op, key)
						}
					}
				}
				if withStore && s.FlushStats().Flushes == 0 {
					t.Fatal("no flush found dirty work")
				}
			})
		}
	}
}
