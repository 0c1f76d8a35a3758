package slate

import (
	"bytes"
	"testing"

	"muppet/internal/frame"
)

// FuzzCodecRoundTrip is the framed codec's format guard: arbitrary
// bytes must round-trip through Encode/Decode, with and without a
// dirty prefix in the destination buffer. `go test` runs the seed
// corpus; `go test -fuzz FuzzCodecRoundTrip ./internal/slate` explores
// further. (internal/frame's FuzzDecode covers the other direction:
// arbitrary stored bytes.)
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("x"))
	f.Add([]byte(`{"count":42,"user":"alice"}`))
	f.Add(bytes.Repeat([]byte("retailer:walmart;"), 50))
	f.Add(incompressible(frame.MinCompressSize))
	f.Add(incompressible(frame.MinCompressSize - 1))
	f.Add([]byte{frame.HeaderRaw, frame.HeaderDeflate, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		stored := frame.Encode(raw)
		if len(stored) > len(raw)+1 {
			t.Fatalf("encode grew %d bytes to %d (> payload+header)", len(raw), len(stored))
		}
		got, err := Decode(stored)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("framed round trip mismatch: %d bytes in, %d out", len(raw), len(got))
		}

		// AppendEncode after a dirty prefix must not disturb either.
		prefix := []byte("prefix")
		buf := AppendEncode(append([]byte(nil), prefix...), raw)
		if !bytes.Equal(buf[:len(prefix)], prefix) {
			t.Fatal("AppendEncode clobbered dst prefix")
		}
		got, err = Decode(buf[len(prefix):])
		if err != nil || !bytes.Equal(got, raw) {
			t.Fatalf("append-encode round trip mismatch: %v", err)
		}
	})
}
