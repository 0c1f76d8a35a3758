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

type tweetishCodec struct{}

func (tweetishCodec) New() any                                       { return new(tweetish) }
func (tweetishCodec) Decode([]byte) (any, error)                     { return new(tweetish), nil }
func (tweetishCodec) AppendEncode(dst []byte, _ any) ([]byte, error) { return append(dst, '0'), nil }

// TestCacheInsertAllocBudget: a typed update of a slate the cache does
// not hold allocates the entry, the entry's copy of the key and the
// decoded object — nothing for the LRU list — while the cache, full,
// evicts one slate per insert.
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
		if err != nil || v != nil {
			t.Fatalf("GetDecoded(%v) = %v, %v: want a miss", k, v, err)
		}
		if err := s.PutDecoded(k, c.New(), c); err != nil {
			t.Fatal(err)
		}
	}
	for range 2 * capacity { // fill the cache and its maps
		insert()
	}
	if n := testing.AllocsPerRun(2*capacity, insert); n != 3 {
		t.Fatalf("a typed insert allocated %.1f times, want 3 (entry, key clone, object)", n)
	}
	if got := s.Len(); got != capacity {
		t.Fatalf("%d slates resident, want %d", got, capacity)
	}
}
