package slate

import (
	"fmt"
	"testing"
)

// tweetish is a slate object with pointers in it, as an application's
// typed slate has.
type tweetish struct {
	User  string
	Count int
}

type tweetishCodec struct{ Alloc[tweetish] }

func (tweetishCodec) Decode([]byte) (any, error)                     { return new(tweetish), nil }
func (tweetishCodec) AppendEncode(dst []byte, _ any) ([]byte, error) { return append(dst, '0'), nil }

// TestCacheInsertAllocBudget: a typed update of a slate the cache does
// not hold allocates one block — the entry, its copy of the key, room
// for the encoding and the zero object the updater starts from —
// nothing for the LRU list, while the cache, full, evicts one slate per
// insert.
func TestCacheInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const capacity = 64
	s := NewSharded(ShardedConfig{Shards: 1, Capacity: capacity, Policy: OnEvict})
	keys := make([]Key, 4*capacity)
	for i := range keys {
		keys[i] = Key{Updater: "U", Key: fmt.Sprintf("user%05d", i)}
	}
	var c tweetishCodec
	i := 0
	insert := func() {
		k := keys[i%len(keys)]
		i++
		v, err := s.GetDecoded(k, c)
		if err != nil || v == nil || *v.(*tweetish) != (tweetish{}) {
			t.Fatalf("GetDecoded(%v) = %v, %v: want a fresh zero slate", k, v, err)
		}
		if err := s.PutDecoded(k, v, c); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * capacity { // fill the cache and its maps
		insert()
	}
	if n := testing.AllocsPerRun(2*capacity, insert); n != 1 {
		t.Fatalf("a typed insert allocated %.1f times, want 1 (the entry block)", n)
	}
	if got := s.Len(); got != capacity {
		t.Fatalf("%d slates resident, want %d", got, capacity)
	}
}
