package frame

import (
	"bytes"
	"compress/flate"
	"testing"
)

// TestDecodeRejectsWhatIsNotAFrame pins the input rule of the only
// decoder that reads stored bytes off disks and wires: empty input, a
// first byte without the frame bits, and a version this build does not
// know are errors — never a guess at some other encoding.
func TestDecodeRejectsWhatIsNotAFrame(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Error("empty input decoded")
	}
	payload := []byte("payload")
	for b := 0; b < 256; b++ {
		h := byte(b)
		_, err := Decode(append([]byte{h}, payload...))
		switch {
		case h == HeaderRaw:
			if err != nil {
				t.Errorf("raw frame rejected: %v", err)
			}
		case h == HeaderDeflate:
			if err == nil {
				t.Error("deflate frame over a non-deflate payload decoded")
			}
		case h&KindMask != KindMask:
			if err == nil {
				t.Errorf("first byte %#02x has no frame bits and decoded", h)
			}
		default:
			if err == nil {
				t.Errorf("first byte %#02x carries version %d and decoded", h, h>>3)
			}
		}
	}

	// What the format before this one stored — a bare deflate stream —
	// has no frame bits in its first byte, whatever it holds.
	for n := 0; n < 64; n++ {
		var bare bytes.Buffer
		w, err := flate.NewWriter(&bare, flate.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		w.Write(bytes.Repeat([]byte{byte(n)}, n*37))
		w.Close()
		if _, err := Decode(bare.Bytes()); err == nil {
			t.Fatalf("bare deflate stream of %d bytes decoded", n*37)
		}
	}
}

// TestDecodeTruncatedFrameErrors: a deflate frame cut anywhere short of
// its end is an error, not a shorter value.
func TestDecodeTruncatedFrameErrors(t *testing.T) {
	raw := bytes.Repeat([]byte("retailer:walmart;"), 200)
	stored := Encode(raw)
	if stored[0] != HeaderDeflate {
		t.Fatalf("header = %#x, want deflate", stored[0])
	}
	for cut := 1; cut < len(stored); cut++ {
		if got, err := Decode(stored[:cut]); err == nil {
			t.Fatalf("frame cut at %d of %d decoded to %d bytes", cut, len(stored), len(got))
		}
	}
}

// FuzzDecode feeds Decode arbitrary stored bytes: it must return an
// error or a value, never panic, and a value it returns must survive
// Encode and Decode unchanged. Payload accepts exactly what Decode
// accepts and yields the same bytes, and Decode's copy is its own.
// (internal/slate's FuzzCodecRoundTrip fuzzes the other direction,
// arbitrary payloads through Encode.)
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{HeaderRaw})
	f.Add([]byte{HeaderDeflate})
	f.Add(append([]byte{HeaderRaw}, "slate"...))
	f.Add(Encode(bytes.Repeat([]byte("retailer:walmart;"), 50)))
	f.Add(Encode(bytes.Repeat([]byte("retailer:walmart;"), 50))[:40])
	f.Add([]byte{RawBits | 1<<3, 'h', 'i'})
	f.Add([]byte("definitely not a frame"))
	f.Fuzz(func(t *testing.T, stored []byte) {
		stored = bytes.Clone(stored) // overwritten below
		raw, err := Decode(stored)
		view, verr := Payload(stored)
		if (err == nil) != (verr == nil) || !bytes.Equal(view, raw) {
			t.Fatalf("Payload = %q, %v; Decode = %q, %v", view, verr, raw, err)
		}
		if err != nil {
			return
		}
		want := bytes.Clone(raw)
		for i := range stored {
			stored[i] ^= 0xff
		}
		if !bytes.Equal(raw, want) {
			t.Fatal("Decode's value changed with the stored bytes")
		}
		again, err := Decode(Encode(raw))
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("decoded %d bytes that do not survive a round trip: %v", len(raw), err)
		}
	})
}
