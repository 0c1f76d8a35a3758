package lsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"muppet/internal/bloom"
	"muppet/internal/clock"
)

// segRows is a small sorted run spanning several index strides, with a
// tombstone, a TTL and a value large enough to be stored deflated.
func segRows() []Row {
	rows := make([]Row, 0, 12)
	for i := 0; i < 12; i++ {
		rows = append(rows, Row{Key: "key-" + string(rune('a'+i)), Value: []byte{byte(i)}, WriteTime: t0})
	}
	rows[3].Tombstone, rows[3].Value = true, nil
	rows[5].TTL = time.Minute
	rows[7].Value = bytes.Repeat([]byte("slate;"), 100)
	return rows
}

// segImage assembles a segment file image in buildSegment's layout from
// parts the caller may have damaged: the row region, the index block's
// declared entry count and entries, the bloom block, and the footer's
// row count.
func segImage(rowRegion []byte, idxCount uint64, idxKeys []string, idxOffs []uint64, bloomBlock []byte, rowCount uint64) []byte {
	buf := append([]byte(segMagic), rowRegion...)
	indexOff := uint64(len(buf))
	buf = binary.AppendUvarint(buf, idxCount)
	for i, k := range idxKeys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, idxOffs[i])
	}
	bloomOff := uint64(len(buf))
	buf = append(buf, bloomBlock...)
	buf = binary.LittleEndian.AppendUint64(buf, indexOff)
	buf = binary.LittleEndian.AppendUint64(buf, bloomOff)
	buf = binary.LittleEndian.AppendUint64(buf, rowCount)
	return append(buf, segMagic...)
}

// segParts encodes segRows the way buildSegment does (index stride 4)
// and returns the pieces segImage takes.
func segParts() (rowRegion []byte, idxKeys []string, idxOffs []uint64, bloomBlock []byte, rowCount uint64) {
	rows := segRows()
	filter := bloom.New(len(rows), bloomFPRate)
	var scratch []byte
	for i, r := range rows {
		if i%4 == 0 {
			idxKeys = append(idxKeys, r.Key)
			idxOffs = append(idxOffs, uint64(len(segMagic)+len(rowRegion)))
		}
		filter.Add(r.Key)
		rowRegion, scratch = appendRow(rowRegion, scratch, r)
	}
	return rowRegion, idxKeys, idxOffs, filter.AppendMarshal(nil), uint64(len(rows))
}

// writeSegFile stores img as segment 1 of a fresh MemFS.
func writeSegFile(t testing.TB, img []byte) *MemFS {
	t.Helper()
	fs := NewMemFS()
	f, err := fs.Create("/db/" + segName(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(img); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestSegImageMatchesBuildSegment keeps the damaged-file tests honest:
// undamaged parts assemble into exactly the file the engine writes.
func TestSegImageMatchesBuildSegment(t *testing.T) {
	rowRegion, keys, offs, bl, n := segParts()
	got := segImage(rowRegion, uint64(len(keys)), keys, offs, bl, n)
	if want := buildSegment(segRows(), 4); !bytes.Equal(got, want) {
		t.Fatal("segImage of undamaged parts differs from buildSegment")
	}
}

// TestOpenRejectsDamagedSegment: a segment whose magics are intact but
// whose counts or offsets lie must fail Open with an error — not panic
// in make, and not be mounted to fail on a later read.
func TestOpenRejectsDamagedSegment(t *testing.T) {
	rowRegion, keys, offs, bl, n := segParts()
	swapped := append([]uint64(nil), offs...)
	swapped[1], swapped[2] = swapped[2], swapped[1]
	past := append([]uint64(nil), offs...)
	past[2] = uint64(len(segMagic) + len(rowRegion)) // first byte of the index block
	inMagic := append([]uint64(nil), offs...)
	inMagic[0] = 0
	skipsFirst := append([]uint64(nil), offs...)
	skipsFirst[0]++ // still ascending, but the first row is unindexed
	cases := map[string][]byte{
		"index count 2^62":            segImage(rowRegion, 1<<62, keys, offs, bl, n),
		"index count past its block":  segImage(rowRegion, uint64(len(keys))+1, keys, offs, bl, n),
		"row count 2^62":              segImage(rowRegion, uint64(len(keys)), keys, offs, bl, 1<<62),
		"row count 2^63":              segImage(rowRegion, uint64(len(keys)), keys, offs, bl, 1<<63),
		"index offsets swapped":       segImage(rowRegion, uint64(len(keys)), keys, swapped, bl, n),
		"index offset past the rows":  segImage(rowRegion, uint64(len(keys)), keys, past, bl, n),
		"index offset inside a magic": segImage(rowRegion, uint64(len(keys)), keys, inMagic, bl, n),
		"index skips the first row":   segImage(rowRegion, uint64(len(keys)), keys, skipsFirst, bl, n),
		"rows but an empty index":     segImage(rowRegion, 0, nil, nil, bl, n),
	}
	for name, img := range cases {
		t.Run(name, func(t *testing.T) {
			fs := writeSegFile(t, img)
			if seg, err := openSegment(fs, "/db", 1); err == nil {
				seg.release()
				t.Fatal("openSegment accepted the damaged file")
			}
			// The same through the engine: a manifest that names the file.
			if err := writeManifest(fs, "/db", manifest{Next: 2, Segments: []uint64{1}}); err != nil {
				t.Fatal(err)
			}
			e, err := Open("/db", Options{FS: fs})
			if err == nil {
				e.Close()
				t.Fatal("Open mounted the damaged segment")
			}
			if !strings.Contains(err.Error(), segName(1)) {
				t.Fatalf("error does not name the file: %v", err)
			}
		})
	}
}

// FuzzOpenSegment: arbitrary bytes as a segment file. openSegment, get
// and a scan cursor driven to its end return errors, never panic or
// size an allocation from a number the file merely claims.
func FuzzOpenSegment(f *testing.F) {
	rowRegion, keys, offs, bl, n := segParts()
	valid := segImage(rowRegion, uint64(len(keys)), keys, offs, bl, n)
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(segImage(nil, 0, nil, nil, bl, 0))
	f.Add(segImage(rowRegion, 1<<62, keys, offs, bl, n))
	f.Add(segImage(rowRegion, uint64(len(keys)), keys, offs, bl, 1<<62))
	f.Add(segImage(rowRegion, uint64(len(keys)), keys, []uint64{offs[0], offs[2], offs[1]}, bl, n))
	f.Add(segImage(rowRegion[:len(rowRegion)-3], uint64(len(keys)), keys, offs, bl, n))
	f.Add([]byte(segMagic + segMagic))
	f.Fuzz(func(t *testing.T, img []byte) {
		seg, err := openSegment(writeSegFile(t, img), "/db", 1)
		if err != nil {
			return
		}
		defer seg.release()
		var keys []string
		c := &cursor{seg: seg}
		for {
			ok, err := c.next()
			if err != nil || !ok {
				break
			}
			if len(keys) > 0 && c.row.Key <= keys[len(keys)-1] {
				t.Fatalf("cursor row %q after %q", c.row.Key, keys[len(keys)-1])
			}
			keys = append(keys, c.row.Key)
			c.value()
		}
		if len(keys) > len(img)/minRowBytes {
			t.Fatalf("cursor returned %d rows from %d bytes", len(keys), len(img))
		}
		var buf []byte
		for _, k := range append([]string{"", "key-a", "key-f", "zzz"}, seg.indexKeys...) {
			seg.get(k, &buf)
		}
		for _, k := range keys {
			seg.get(k, &buf)
		}
	})
}

// FuzzDecodeRow: decodeRow never panics on arbitrary bytes, and undoes
// appendRow for any row.
func FuzzDecodeRow(f *testing.F) {
	var scratch []byte
	for _, r := range segRows() {
		var enc []byte
		enc, scratch = appendRow(nil, scratch, r)
		f.Add(enc, r.Key, r.Value, r.WriteTime.UnixNano(), int64(r.TTL), r.Tombstone)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, "", []byte(nil), int64(-1), int64(-1), true)
	f.Fuzz(func(t *testing.T, data []byte, key string, value []byte, writeTime, ttl int64, tombstone bool) {
		for rest := data; len(rest) > 0; {
			_, next, err := decodeRow(rest)
			if err != nil {
				break
			}
			if len(next) >= len(rest) {
				t.Fatal("decodeRow consumed nothing")
			}
			rest = next
		}

		in := Row{Key: key, Value: value, WriteTime: time.Unix(0, writeTime), TTL: time.Duration(ttl), Tombstone: tombstone}
		enc, _ := appendRow([]byte("prefix"), nil, in)
		out, rest, err := decodeRow(append(enc[len("prefix"):], "tail"...))
		if err != nil {
			t.Fatalf("decode of appendRow output: %v", err)
		}
		if string(rest) != "tail" {
			t.Fatalf("decodeRow left %q, want the bytes after the row", rest)
		}
		if out.Key != in.Key || !bytes.Equal(out.Value, in.Value) || !out.WriteTime.Equal(in.WriteTime) ||
			out.TTL != in.TTL || out.Tombstone != in.Tombstone {
			t.Fatalf("round trip: wrote %+v, read %+v", in, out)
		}
	})
}

// TestUnclosedEnginesHoldNoGoroutine: an engine parks no goroutine, so
// the many Dir-less stores nobody closes cost memory the collector can
// take back and nothing else.
func TestUnclosedEnginesHoldNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		e, err := Open("/db", Options{FS: NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Put([]Row{{Key: "k", Value: []byte("v"), WriteTime: t0}}); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before 1000 unclosed engines, %d after", before, after)
	}
}

// TestSegmentGetAllocBudget: a segment point read compares the keys it
// steps past in the read buffer the engine owns, so a hit allocates once
// (its value's copy out of the frame) and a miss inside a block not at
// all, however many rows it steps past.
func TestSegmentGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ck := clock.NewFake(t0)
	e := mustOpen(t, NewMemFS(), ck)
	defer e.Close()
	for i := 0; i < 64; i += 2 {
		put(t, e, ck, fmt.Sprintf("key-%03d", i), `{"n":1}`)
	}
	if _, err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := e.segs[0]
	var buf []byte
	for _, c := range []struct {
		key    string
		found  bool
		budget float64
	}{
		{"key-000", true, 1}, // the first row of a block
		{"key-006", true, 1}, // the last of one, three rows stepped past
		{"key-005", false, 0},
		{"key-061", false, 0},
	} {
		n := testing.AllocsPerRun(100, func() {
			r, ok, _, err := seg.get(c.key, &buf)
			if err != nil || ok != c.found || ok && (r.Key != c.key || string(r.Value) != `{"n":1}`) {
				t.Fatalf("get(%q) = %+v, %v, %v", c.key, r, ok, err)
			}
		})
		if n > c.budget {
			t.Errorf("get(%q), found %v: %.0f allocations, want <= %.0f", c.key, c.found, n, c.budget)
		}
	}
}
