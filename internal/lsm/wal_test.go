package lsm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// walImage appends each batch as one record to a fresh WAL and returns
// the file's bytes and the offset at which each record ends.
func walImage(t testing.TB, batches [][]Row) (img []byte, ends []int) {
	t.Helper()
	fs := NewMemFS()
	w, err := newWAL(fs, "/db", 1)
	if err != nil {
		t.Fatal(err)
	}
	end := 0
	for _, b := range batches {
		n, err := w.append(b)
		if err != nil {
			t.Fatal(err)
		}
		end += int(n)
		ends = append(ends, end)
	}
	f, err := fs.Open(w.path)
	if err != nil {
		t.Fatal(err)
	}
	img = make([]byte, end)
	if _, err := f.ReadAt(img, 0); err != nil {
		t.Fatal(err)
	}
	return img, ends
}

func sameRow(a, b Row) bool {
	return a.Key == b.Key && bytes.Equal(a.Value, b.Value) && a.WriteTime.Equal(b.WriteTime) &&
		a.TTL == b.TTL && a.Tombstone == b.Tombstone
}

// FuzzReadWAL: a WAL torn at any length, with any bytes flipped, replays
// a record-granular prefix of the appended rows, and every record that
// ends before the first damaged byte is in it. The fuzzer picks the
// length kept and the flips (3 bytes each: a little-endian offset into
// the image and an XOR mask); a crash leaves exactly such a tail.
func FuzzReadWAL(f *testing.F) {
	rows := segRows()
	batches := [][]Row{rows[:1], rows[1:5], rows[5:6], rows[6:]}
	img, ends := walImage(f, batches)
	at := func(off int, mask byte) []byte { return []byte{byte(off), byte(off >> 8), mask} }
	f.Add(uint32(len(img)), []byte(nil))
	f.Add(uint32(ends[1]+3), []byte(nil))                             // torn inside record 2's header
	f.Add(uint32(ends[2]-1), []byte(nil))                             // record 3 short by one byte
	f.Add(uint32(len(img)), at(ends[0]+walHeaderSize+2, 0x40))        // flipped payload byte
	f.Add(uint32(len(img)), at(ends[1]+1, 0x01))                      // flipped length
	f.Add(uint32(len(img)), append(at(ends[2]+5, 0xff), at(3, 1)...)) // two flips, the later first
	f.Fuzz(func(t *testing.T, keep uint32, flips []byte) {
		dmg := append([]byte(nil), img[:int(keep%uint32(len(img)+1))]...)
		first := len(dmg)
		for ; len(flips) >= 3; flips = flips[3:] {
			off := int(binary.LittleEndian.Uint16(flips)) % len(img)
			if off >= len(dmg) || flips[2] == 0 {
				continue
			}
			dmg[off] ^= flips[2]
			first = min(first, off)
		}
		fs := NewMemFS()
		file, err := fs.Create("/db/" + walName(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := file.Write(dmg); err != nil {
			t.Fatal(err)
		}
		var got []Row
		if err := readWAL(fs, "/db", 1, func(r Row) { got = append(got, r) }); err != nil {
			t.Fatalf("replay: %v", err)
		}

		replayed, n := 0, 0
		for replayed < len(batches) && n+len(batches[replayed]) <= len(got) {
			n += len(batches[replayed])
			replayed++
		}
		if n != len(got) {
			t.Fatalf("replayed %d rows, which ends inside record %d", len(got), replayed+1)
		}
		for i, r := range got {
			if !sameRow(r, rows[i]) {
				t.Fatalf("replayed row %d = %+v, appended %+v", i, r, rows[i])
			}
		}
		intact := 0
		for intact < len(ends) && ends[intact] <= first {
			intact++
		}
		if replayed < intact {
			t.Fatalf("replayed %d records, but the first %d end before the first damaged byte %d", replayed, intact, first)
		}
	})
}
