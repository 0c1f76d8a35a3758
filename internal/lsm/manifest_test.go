package lsm

import (
	"encoding/binary"
	"reflect"
	"slices"
	"testing"
)

// putFile writes data as dir/name on fs.
func putFile(t *testing.T, fs FS, name string, data []byte) {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// getFile reads the whole of name on fs.
func getFile(t *testing.T, fs FS, name string) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil {
		t.Fatal(err)
	}
	return data
}

// A manifest reads back as written, and one written as bare JSON, as
// every store was before the manifest had a header, still opens.
func TestManifestRoundTripAndHeaderless(t *testing.T) {
	fs := NewMemFS()
	fs.MkdirAll("/db")
	want := manifest{Version: manifestVersion, Next: 12, WALSeq: 11, Segments: []uint64{10, 7, 3}}
	if err := writeManifest(fs, "/db", want); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := readManifest(fs, "/db"); err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("read %+v ok=%v err=%v, want %+v", got, ok, err, want)
	}
	putFile(t, fs, "/db/"+manifestName, []byte(`{"version":1,"next":12,"wal":11,"segments":[10,7,3]}`))
	if got, ok, err := readManifest(fs, "/db"); err != nil || !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("headerless: read %+v ok=%v err=%v, want %+v", got, ok, err, want)
	}
}

// FuzzReadManifest: a manifest truncated at any length, or with any one
// bit flipped, either fails to decode or names only segments it was
// written with — never another file the engine would then open as live
// or sweep as an orphan. Arbitrary bytes in the manifest's place never
// panic the reader.
func FuzzReadManifest(f *testing.F) {
	f.Add([]byte{10, 0, 7, 0, 3, 0}, false, uint32(8*30+2))
	f.Add([]byte{10, 0, 7, 0, 3, 0}, true, uint32(40))
	f.Add([]byte{0xff, 0xff}, false, uint32(9))
	f.Add([]byte(`{"version":1,"next":2,"segments":[1]}`), true, uint32(0))
	f.Add([]byte(nil), false, uint32(0))
	f.Fuzz(func(t *testing.T, segs []byte, truncate bool, at uint32) {
		fs := NewMemFS()
		fs.MkdirAll("/db")
		putFile(t, fs, "/db/"+manifestName, segs)
		readManifest(fs, "/db")

		var m manifest
		for ; len(segs) >= 2; segs = segs[2:] {
			m.Segments = append(m.Segments, uint64(binary.LittleEndian.Uint16(segs))+1)
		}
		m.Next = uint64(len(m.Segments)) + 70000
		m.WALSeq = m.Next - 1
		if err := writeManifest(fs, "/db", m); err != nil {
			t.Fatal(err)
		}
		img := getFile(t, fs, "/db/"+manifestName)
		if truncate {
			img = img[:at%uint32(len(img))]
		} else {
			bit := at % uint32(8*len(img))
			img[bit/8] ^= 1 << (bit % 8)
		}
		putFile(t, fs, "/db/"+manifestName, img)
		got, _, err := readManifest(fs, "/db")
		if err != nil {
			return
		}
		for _, seq := range got.Segments {
			if !slices.Contains(m.Segments, seq) {
				t.Fatalf("damaged manifest names segment %d; it was written with %v", seq, m.Segments)
			}
		}
	})
}
