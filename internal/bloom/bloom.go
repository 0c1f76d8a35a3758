// Package bloom implements a standard Bloom filter. The key-value
// store attaches one to each sorted run so that slate reads skip runs
// that cannot contain the requested row, mirroring Cassandra's use of
// per-SSTable bloom filters (the store the paper persists slates in,
// Section 4.2).
package bloom

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// Filter is a fixed-size Bloom filter. It is not safe for concurrent
// mutation; the kvstore builds a filter once per immutable run.
type Filter struct {
	bits   []uint64
	nbits  uint64
	hashes int
}

// New returns a filter sized for n expected items at the given false
// positive rate (e.g. 0.01).
func New(n int, fpRate float64) *Filter {
	if n < 1 {
		n = 1
	}
	if fpRate <= 0 || fpRate >= 1 {
		fpRate = 0.01
	}
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Filter{
		bits:   make([]uint64, (m+63)/64),
		nbits:  m,
		hashes: k,
	}
}

// base hashes yield k derived positions via double hashing
// (Kirsch-Mitzenmacher).
func (f *Filter) positions(key string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(key))
	h1 := h.Sum64()
	h2 := h1>>33 | h1<<31
	if h2 == 0 {
		h2 = 0x9E3779B97F4A7C15
	}
	return h1, h2
}

// Add inserts a key.
func (f *Filter) Add(key string) {
	h1, h2 := f.positions(key)
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// MayContain reports whether the key may have been added. False means
// definitely absent.
func (f *Filter) MayContain(key string) bool {
	h1, h2 := f.positions(key)
	for i := 0; i < f.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % f.nbits
		if f.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

// Serialized form: a fixed header (version, hash count, bit count)
// followed by the bit array as little-endian 64-bit words. The hash
// function is part of the format contract — a filter unmarshalled by a
// future version must probe the same positions — so marshalVersion
// must change if positions() ever does.
const (
	marshalVersion = 1
	marshalHeader  = 1 + 1 + 8 // version, hashes, nbits
)

// MarshaledSize reports the exact length of Marshal's output.
func (f *Filter) MarshaledSize() int { return marshalHeader + len(f.bits)*8 }

// Marshal serializes the filter for storage (e.g. in a segment file
// footer). The encoding is versioned and fixed-width; Unmarshal
// reverses it exactly.
func (f *Filter) Marshal() []byte {
	return f.AppendMarshal(make([]byte, 0, f.MarshaledSize()))
}

// AppendMarshal appends the serialized filter to dst and returns the
// extended buffer, allocating nothing when dst has room.
func (f *Filter) AppendMarshal(dst []byte) []byte {
	dst = append(dst, marshalVersion, byte(f.hashes))
	dst = binary.LittleEndian.AppendUint64(dst, f.nbits)
	for _, w := range f.bits {
		dst = binary.LittleEndian.AppendUint64(dst, w)
	}
	return dst
}

// Unmarshal reconstructs a filter from Marshal's output. The data must
// be exactly one serialized filter; trailing bytes are an error, so
// corruption cannot silently widen or narrow the bit array.
func Unmarshal(data []byte) (*Filter, error) {
	if len(data) < marshalHeader {
		return nil, fmt.Errorf("bloom: unmarshal: %d bytes is shorter than the %d-byte header", len(data), marshalHeader)
	}
	if v := data[0]; v != marshalVersion {
		return nil, fmt.Errorf("bloom: unmarshal: unsupported version %d", v)
	}
	hashes := int(data[1])
	if hashes < 1 || hashes > 16 {
		return nil, fmt.Errorf("bloom: unmarshal: hash count %d out of range [1,16]", hashes)
	}
	nbits := binary.LittleEndian.Uint64(data[2:])
	if nbits > uint64(len(data))*8 { // also keeps nbits+63 from wrapping
		return nil, fmt.Errorf("bloom: unmarshal: %d bits cannot fit in %d bytes", nbits, len(data))
	}
	words := int((nbits + 63) / 64)
	if nbits == 0 || len(data) != marshalHeader+words*8 {
		return nil, fmt.Errorf("bloom: unmarshal: %d bits needs %d bytes, got %d", nbits, marshalHeader+words*8, len(data))
	}
	f := &Filter{bits: make([]uint64, words), nbits: nbits, hashes: hashes}
	for i := range f.bits {
		f.bits[i] = binary.LittleEndian.Uint64(data[marshalHeader+i*8:])
	}
	return f, nil
}
