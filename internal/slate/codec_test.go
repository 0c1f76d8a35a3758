package slate

import (
	"bytes"
	"fmt"
	"testing"

	"muppet/internal/frame"
)

// TestDecompressTruncated covers the half-written-value corner: a
// deflate stream cut off mid-way must error, not return partial slate
// bytes as if they were the whole value.
func TestDecompressTruncated(t *testing.T) {
	stored := frame.Encode(bytes.Repeat([]byte("abcdefgh"), 1000))
	if _, err := Decode(stored[:len(stored)/2]); err == nil {
		t.Fatal("decompress of truncated stream succeeded")
	}
}

// TestCompressBinaryRoundTrip pins the codec on non-text slates
// (arbitrary byte values, including 0x00 and 0xff).
func TestCompressBinaryRoundTrip(t *testing.T) {
	raw := make([]byte, 256)
	for i := range raw {
		raw[i] = byte(i)
	}
	got, err := Decode(frame.Encode(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("binary round trip mismatch")
	}
}

// TestEncodeSmallSkipsDeflate pins the raw-framing decision: a slate
// below frame.MinCompressSize is stored as header byte + verbatim payload,
// no deflate stream at all.
func TestEncodeSmallSkipsDeflate(t *testing.T) {
	raw := []byte(`{"count":42}`)
	stored := frame.Encode(raw)
	if len(stored) != len(raw)+1 {
		t.Fatalf("stored %d bytes, want %d (header + raw)", len(stored), len(raw)+1)
	}
	if stored[0] != frame.HeaderRaw {
		t.Fatalf("header = %#x, want %#x", stored[0], frame.HeaderRaw)
	}
	if !bytes.Equal(stored[1:], raw) {
		t.Fatal("payload not verbatim")
	}
	got, err := Decode(stored)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("decode = %q, %v", got, err)
	}
}

// TestEncodeLargeCompresses pins the deflate framing: a redundant
// slate above the threshold is stored deflated and much smaller.
func TestEncodeLargeCompresses(t *testing.T) {
	raw := bytes.Repeat([]byte("retailer:walmart;"), 100)
	stored := frame.Encode(raw)
	if stored[0] != frame.HeaderDeflate {
		t.Fatalf("header = %#x, want %#x", stored[0], frame.HeaderDeflate)
	}
	if len(stored) >= len(raw)/2 {
		t.Fatalf("stored %d -> %d, expected much smaller", len(raw), len(stored))
	}
	got, err := Decode(stored)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("decode mismatch: %v", err)
	}
}

// TestEncodeIncompressibleFallsBackToRaw pins the no-shrink fallback:
// when deflate cannot beat the raw payload, the raw framing is stored,
// so the on-store size is never more than payload + 1 header byte.
func TestEncodeIncompressibleFallsBackToRaw(t *testing.T) {
	raw := incompressible(4096)
	stored := frame.Encode(raw)
	if stored[0] != frame.HeaderRaw {
		t.Fatalf("header = %#x, want raw %#x", stored[0], frame.HeaderRaw)
	}
	if len(stored) != len(raw)+1 {
		t.Fatalf("stored %d bytes, want %d", len(stored), len(raw)+1)
	}
	got, err := Decode(stored)
	if err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("decode mismatch: %v", err)
	}
}

// TestDecodeRejectsUnknownVersion: a frame header with a future
// version must error rather than misparse the payload.
func TestDecodeRejectsUnknownVersion(t *testing.T) {
	stored := []byte{frame.RawBits | 1<<3, 'h', 'i'}
	if _, err := Decode(stored); err == nil {
		t.Fatal("decode of unknown frame version succeeded")
	}
}

// TestDecodeEmptyValueErrors: zero stored bytes is corruption (even an
// empty slate encodes to at least the header byte).
func TestDecodeEmptyValueErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("decode of empty value succeeded")
	}
}

// TestEncodeEmptyAndTinyRoundTrip covers the degenerate sizes.
func TestEncodeEmptyAndTinyRoundTrip(t *testing.T) {
	for _, raw := range [][]byte{nil, {}, {0}, []byte("a")} {
		got, err := Decode(frame.Encode(raw))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("round trip of %q = %q", raw, got)
		}
	}
}

// TestAppendEncodePreservesPrefix: AppendEncode must append after
// existing dst content (the batch encoder packs many slates into one
// buffer), and the encodings must decode independently.
func TestAppendEncodePreservesPrefix(t *testing.T) {
	small := []byte("tiny")
	large := bytes.Repeat([]byte("muppet;"), 64)
	buf := AppendEncode(nil, small)
	cut := len(buf)
	buf = AppendEncode(buf, large)
	got1, err := Decode(buf[:cut])
	if err != nil || !bytes.Equal(got1, small) {
		t.Fatalf("first encoding: %q, %v", got1, err)
	}
	got2, err := Decode(buf[cut:])
	if err != nil || !bytes.Equal(got2, large) {
		t.Fatalf("second encoding: %v", err)
	}
}

// incompressible returns n pseudorandom bytes (deterministic, no seed
// dependency) that deflate cannot shrink.
func incompressible(n int) []byte {
	out := make([]byte, n)
	var x uint64 = 0x9e3779b97f4a7c15
	for i := range out {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		out[i] = byte(x)
	}
	return out
}

// TestKVStoreFramedRowsReadable pins the adapter end of the framing:
// rows written through KVStore.SaveBatch decode through both Load and
// a bare Decode of the stored row (what StoredSlates does).
func TestKVStoreFramedRowsReadable(t *testing.T) {
	s, clu := kvHarness(t)
	small := []byte(`{"n":1}`)
	large := bytes.Repeat([]byte("hot-topic;"), 100)
	if err := s.SaveBatch([]BatchRecord{
		{K: Key{Updater: "U1", Key: "small"}, Value: small},
		{K: Key{Updater: "U1", Key: "large"}, Value: large},
		{K: Key{Updater: "U1", Key: "small2"}, Value: small},
	}); err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string][]byte{"small": small, "large": large, "small2": small} {
		got, found, err := s.Load(Key{Updater: "U1", Key: name})
		if err != nil || !found || !bytes.Equal(got, want) {
			t.Fatalf("load %s = (%v, %v, %v)", name, got, found, err)
		}
		stored, found, _, err := clu.Get(name, "U1", s.Level)
		if err != nil || !found {
			t.Fatalf("raw row %s: %v", name, err)
		}
		raw, err := Decode(stored)
		if err != nil || !bytes.Equal(raw, want) {
			t.Fatalf("raw row %s decode: %v", name, err)
		}
	}
}

// TestSaveBatchManySizes stresses the shared-buffer batch encoder with
// a mix of raw-framed and deflate-framed records, asserting no record
// bleeds into a neighbor's bytes.
func TestSaveBatchManySizes(t *testing.T) {
	s, _ := kvHarness(t)
	var recs []BatchRecord
	want := map[string][]byte{}
	for i := 0; i < 64; i++ {
		var v []byte
		switch i % 3 {
		case 0:
			v = []byte(fmt.Sprintf(`{"i":%d}`, i))
		case 1:
			v = bytes.Repeat([]byte{'a' + byte(i%26)}, 200+i)
		default:
			v = incompressible(100 + i)
		}
		key := fmt.Sprintf("k%02d", i)
		recs = append(recs, BatchRecord{K: Key{Updater: "U", Key: key}, Value: v})
		want[key] = v
	}
	if err := s.SaveBatch(recs); err != nil {
		t.Fatal(err)
	}
	for key, v := range want {
		got, found, err := s.Load(Key{Updater: "U", Key: key})
		if err != nil || !found || !bytes.Equal(got, v) {
			t.Fatalf("batch record %s corrupted (found=%v err=%v)", key, found, err)
		}
	}
}
