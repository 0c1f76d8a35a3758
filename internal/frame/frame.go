// Package frame is the storage framing codec shared by every durable
// byte surface of the system: slate values in the key-value store
// (internal/slate delegates here), and row values inside the LSM
// engine's segment and log files (internal/lsm).
//
// The stored form of a value is one header byte followed by the
// payload, either verbatim or deflate-compressed; small values skip
// compression entirely and the deflate writers/readers are pooled, so
// a steady encode stream allocates nothing beyond the output buffer.
// This is the only stored format: Decode reads bytes off disks and
// wires, and anything that does not begin with a frame header of the
// current version is corrupt — an error, never a guess at some other
// encoding.
//
// The package sits below internal/slate and internal/kvstore in the
// import graph and must not import either.
package frame

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Framing layout
//
// The header's low three bits distinguish the two payload kinds; the
// high five bits carry the format version (currently 0):
//
//	0b110 (0x06) — raw payload, stored verbatim
//	0b111 (0x07) — deflate-compressed payload
//
// Both low-bit patterns encode BTYPE=3, the reserved deflate block
// type, in the position where a deflate stream carries its first block
// header. compress/flate never emits a reserved block, so a bare
// deflate stream handed to Decode by mistake is rejected at its first
// byte instead of being taken for a frame.
const (
	// Version is the current frame format version.
	Version = 0

	// RawBits and DeflateBits are the low-bit patterns of the two
	// payload kinds; KindMask selects the bits that mark a byte as a
	// frame header at all.
	RawBits     = 0x06 // BFINAL=0, BTYPE=3 (reserved)
	DeflateBits = 0x07 // BFINAL=1, BTYPE=3 (reserved)
	KindMask    = 0x06 // a first byte with both bits set is framed

	// HeaderRaw and HeaderDeflate are the complete header bytes at the
	// current version.
	HeaderRaw     = RawBits | Version<<3
	HeaderDeflate = DeflateBits | Version<<3
)

// MinCompressSize is the threshold below which Encode stores values
// raw: deflate overhead (block headers, the end-of-stream marker)
// exceeds any saving on tiny payloads, and skipping the writer
// entirely keeps small-value encodes allocation- and CPU-free.
const MinCompressSize = 64

// appendSink is an in-memory io.Writer that appends to a byte slice.
// Its Write cannot fail, which is what makes the pooled encoder's
// deflate errors impossible (see AppendEncode).
type appendSink struct{ buf []byte }

func (s *appendSink) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// encoder pairs a reusable flate.Writer with its append sink. A
// flate.Writer at BestSpeed carries hundreds of KB of internal state;
// constructing one per encode was the dominant allocation of the whole
// slate write path, so encoders are pooled and Reset between uses.
type encoder struct {
	sink appendSink
	w    *flate.Writer
}

var encoderPool = sync.Pool{New: func() any {
	e := &encoder{}
	w, err := flate.NewWriter(&e.sink, flate.BestSpeed)
	if err != nil {
		// flate.NewWriter only fails on an invalid level constant.
		panic(fmt.Sprintf("frame: flate writer: %v", err))
	}
	e.w = w
	return e
}}

// decoder pairs a reusable flate reader with its bytes.Reader source
// and a reusable inflate scratch buffer.
type decoder struct {
	br  bytes.Reader
	r   io.ReadCloser
	buf []byte
}

var decoderPool = sync.Pool{New: func() any {
	d := &decoder{}
	d.r = flate.NewReader(&d.br)
	return d
}}

// Encode frames a value for storage: a 1-byte header, then either the
// raw payload (below MinCompressSize, or when deflate fails to shrink)
// or the deflate-compressed payload. It allocates only the returned
// buffer; the deflate writer is pooled. Use AppendEncode to reuse a
// caller-owned buffer and allocate nothing at all.
func Encode(raw []byte) []byte {
	return AppendEncode(make([]byte, 0, len(raw)+1), raw)
}

// AppendEncode appends the framed encoding of raw to dst and returns
// the extended buffer. With a dst of sufficient capacity the encode
// performs no allocation: small values skip deflate entirely, and
// larger ones run through a pooled flate.Writer. When deflate does not
// shrink the payload (incompressible values) the raw framing is stored
// instead, so the stored form is never more than one byte larger than
// the value.
func AppendEncode(dst, raw []byte) []byte {
	if len(raw) < MinCompressSize {
		dst = append(dst, HeaderRaw)
		return append(dst, raw...)
	}
	base := len(dst)
	dst = append(dst, HeaderDeflate)
	e := encoderPool.Get().(*encoder)
	e.sink.buf = dst
	e.w.Reset(&e.sink)
	_, werr := e.w.Write(raw)
	cerr := e.w.Close()
	dst = e.sink.buf
	e.sink.buf = nil
	encoderPool.Put(e)
	if werr != nil || cerr != nil {
		// The sink's Write never fails, so deflate to it cannot either.
		panic(fmt.Sprintf("frame: encode: %v", firstNonNil(werr, cerr)))
	}
	if len(dst)-base-1 >= len(raw) {
		// Deflate did not shrink the payload; store it raw.
		dst = append(dst[:base], HeaderRaw)
		return append(dst, raw...)
	}
	return dst
}

func firstNonNil(a, b error) error {
	if a != nil {
		return a
	}
	return b
}

// Decode reverses Encode into memory of its own: callers retain
// decoded values (caches, update functions may mutate them in place),
// and stored may be live storage memory. Empty input, a first byte
// without the frame bits, and an unknown version are errors.
func Decode(stored []byte) ([]byte, error) {
	raw, err := Payload(stored)
	if err == nil && stored[0] == HeaderRaw { // raw aliases stored
		raw = append([]byte(nil), raw...)
	}
	return raw, err
}

// Payload is Decode without the copy: a raw payload is returned as a
// slice of stored itself, capped at its length, so the caller must not
// write to it and must copy what it keeps longer than stored stays
// unchanged. A deflated payload inflates into fresh memory.
func Payload(stored []byte) ([]byte, error) {
	if len(stored) == 0 {
		return nil, fmt.Errorf("frame: decode: empty stored value")
	}
	h := stored[0]
	if h&KindMask != KindMask {
		return nil, fmt.Errorf("frame: decode: first byte %#02x is not a frame header", h)
	}
	if v := h >> 3; v != Version {
		return nil, fmt.Errorf("frame: decode: unsupported frame version %d", v)
	}
	if h&0x01 == 0 { // RawBits: raw payload follows the header
		return stored[1:len(stored):len(stored)], nil
	}
	return inflate(stored[1:])
}

// inflate decompresses a bare deflate stream through a pooled reader,
// returning a fresh exactly-sized buffer (callers retain the result in
// caches and events, so scratch cannot be handed out).
func inflate(data []byte) ([]byte, error) {
	d := decoderPool.Get().(*decoder)
	defer decoderPool.Put(d)
	d.br.Reset(data)
	if err := d.r.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return nil, fmt.Errorf("frame: decompress: %w", err)
	}
	buf := d.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := d.r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			d.buf = buf
			return nil, fmt.Errorf("frame: decompress: %w", err)
		}
	}
	d.buf = buf
	out := make([]byte, len(buf))
	copy(out, buf)
	return out, nil
}
