package slate

import (
	"strings"
	"unsafe"
)

// Alloc is the allocator of slate type S, and every Codec embeds it:
// New hands out a zero S on its own, and the cache takes the zero S of
// a slate it does not hold yet from inside the slate's new entry, so a
// new typed slate costs the cache one allocation (see the package doc's
// entry block).
type Alloc[S any] struct{}

// New returns a freshly allocated zero-value slate object, a *S.
func (Alloc[S]) New() any { return new(S) }

// newEntry returns a new entry for k with room bytes of encoding room
// and, in the same block, a zero S.
func (Alloc[S]) newEntry(k Key, room int) (*entry, any) {
	e, v := newEntry[S](k, room)
	return e, v
}

// newSlateRoom is the encoding room a typed slate's entry gets before
// the slate has been encoded: enough for a small record whose numbers
// gain digits over its first updates (a reputation score goes from 1 to
// seventeen significant digits in a few).
const newSlateRoom = 48

// grown is the room kept for an n-byte encoding: a quarter again, and
// never less than the growth of a small record's first updates.
func grown(n int) int { return n + max(n/4, 16) }

// maxBlockBytes is the largest key-and-room array of an entry block.
// An encoding that does not fit beside the key gets a buffer of its own
// (entry.room), and a key longer than this a copy of its own.
const maxBlockBytes = 256

// entryBlock is a cache entry's one allocation: the entry, a zero slate
// object (S is struct{} for an entry that needs none) and buf, a byte
// array that holds the entry's copy of the key followed by the room for
// its encoding. The key's bytes are never written again; the room is
// the entry's first room (see entry.room).
type entryBlock[S, B any] struct {
	e   entry
	v   S
	buf B
}

// newEntry returns a new entry for k whose block keeps at least room
// bytes after the key, the array rounded up a ladder of sizes each at
// most half again the one below. When key and room do not fit the
// largest, the block is sized for the key alone.
func newEntry[S any](k Key, room int) (*entry, *S) {
	n := len(k.Key) + room
	if n > maxBlockBytes {
		n = len(k.Key)
	}
	switch {
	case n <= 32:
		return block[S, [32]byte](k)
	case n <= 48:
		return block[S, [48]byte](k)
	case n <= 64:
		return block[S, [64]byte](k)
	case n <= 96:
		return block[S, [96]byte](k)
	case n <= 128:
		return block[S, [128]byte](k)
	case n <= 192:
		return block[S, [192]byte](k)
	}
	return block[S, [maxBlockBytes]byte](k)
}

// block allocates an entryBlock[S, B] and fills in the entry's key and
// room.
func block[S, B any](k Key) (*entry, *S) {
	b := new(entryBlock[S, B])
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&b.buf)), unsafe.Sizeof(b.buf))
	e := &b.e
	e.key.Updater = k.Updater
	if len(k.Key) > len(buf) {
		e.key.Key = strings.Clone(k.Key)
		e.room = buf[:0]
		return e, &b.v
	}
	n := copy(buf, k.Key)
	e.key.Key = unsafe.String(&buf[0], n)
	e.room = buf[n:n]
	return e, &b.v
}

// hold makes a copy of b the entry's encoding: in its room when b fits
// and no save in flight carries what the room holds, else in a new
// buffer with room to grow, which becomes the entry's room. Caller holds
// the entry's shard lock.
func (e *entry) hold(b []byte) {
	if e.flushing || len(b) > cap(e.room) {
		e.room = make([]byte, 0, grown(len(b)))
	}
	e.value = append(e.room[:0], b...)
}
