package frame

import (
	"bytes"
	"testing"
)

// benchCodec times the save path (AppendEncode into a reused buffer —
// the steady state of the group-commit flusher; allocs/op must stay 0)
// and the load path of the codec.
func benchCodec(b *testing.B, raw []byte) {
	b.Run("save", func(b *testing.B) {
		var buf []byte
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = AppendEncode(buf[:0], raw)
		}
	})
	b.Run("load", func(b *testing.B) {
		stored := Encode(raw)
		b.SetBytes(int64(len(raw)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(stored); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCodecSmall: a typical counter slate below MinCompressSize —
// stored raw, skipping deflate entirely.
func BenchmarkCodecSmall(b *testing.B) {
	benchCodec(b, []byte(`{"user":"u123","count":42}`))
}

// BenchmarkCodecLarge: a redundant ~900-byte JSON slate — deflated
// through the pooled writer.
func BenchmarkCodecLarge(b *testing.B) {
	benchCodec(b, bytes.Repeat([]byte(`{"user":"u123","count":42,"tags":["a","b"]},`), 20))
}

// BenchmarkCodecIncompressible: high-entropy bytes deflate cannot
// shrink, so the codec falls back to raw storage.
func BenchmarkCodecIncompressible(b *testing.B) {
	raw := make([]byte, 1024)
	var x uint64 = 0x9e3779b97f4a7c15
	for i := range raw {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		raw[i] = byte(x)
	}
	benchCodec(b, raw)
}
