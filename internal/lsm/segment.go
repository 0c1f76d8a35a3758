package lsm

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"muppet/internal/bloom"
	"muppet/internal/frame"
)

// Row is one versioned cell as the engine stores it: the composed
// <key,column> row key, the value bytes, and the write metadata the
// read path needs for newest-wins resolution and TTL expiry.
type Row struct {
	Key   string
	Value []byte
	// WriteTime orders versions of the same key across runs and anchors
	// the TTL.
	WriteTime time.Time
	// TTL of zero means the row lives forever.
	TTL       time.Duration
	Tombstone bool
}

// expired reports whether the row's TTL has lapsed at time now.
func (r Row) expired(now time.Time) bool {
	return r.TTL > 0 && now.Sub(r.WriteTime) > r.TTL
}

// Deleted reports whether the row reads as absent at time now: Get
// returns such rows (visibility is the caller's decision), Scan skips
// them.
func (r Row) Deleted(now time.Time) bool { return r.Tombstone || r.expired(now) }

// Row encoding — shared by WAL records and segment data blocks:
//
//	uvarint keyLen | key | uvarint writeTime (unixnano as uint64)
//	| uvarint ttl (nanoseconds) | flags (bit0 = tombstone)
//	| uvarint frameLen | frame(value)
//
// The value travels through the internal/frame codec (the PR 4 framed
// pooled deflate), so large compressible slates shrink on disk and the
// encode path allocates nothing beyond the destination buffer.
const rowFlagTombstone = 0x01

// minRowBytes is the shortest row encoding: an empty key, one-byte
// write time and TTL, the flags byte, and a zero-length value.
const minRowBytes = 5

// appendRow appends r's encoding to dst. scratch is reusable working
// memory for the value framing; the (possibly grown) scratch is
// returned for reuse.
func appendRow(dst, scratch []byte, r Row) (out, scratchOut []byte) {
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(r.WriteTime.UnixNano()))
	dst = binary.AppendUvarint(dst, uint64(r.TTL))
	var flags byte
	if r.Tombstone {
		flags |= rowFlagTombstone
	}
	dst = append(dst, flags)
	scratch = frame.AppendEncode(scratch[:0], r.Value)
	dst = binary.AppendUvarint(dst, uint64(len(scratch)))
	dst = append(dst, scratch...)
	return dst, scratch
}

// decodeRow decodes one row from the front of data, returning the row
// and the remaining bytes. The value is decoded out of its frame into
// fresh memory (rows outlive the read buffer).
func decodeRow(data []byte) (Row, []byte, error) {
	r, enc, rest, err := decodeRowHead(data)
	if err != nil {
		return r, nil, err
	}
	if r.Value, err = decodeValue(r, enc); err != nil {
		return r, nil, err
	}
	return r, rest, nil
}

// decodeRowHead decodes the row at the front of data except its value,
// which it returns still framed (enc aliases data), with the remaining
// bytes. Readers that may skip the row pay no frame decode for it.
func decodeRowHead(data []byte) (r Row, enc, rest []byte, err error) {
	key, r, enc, rest, err := decodeRowKey(data)
	r.Key = string(key)
	return r, enc, rest, err
}

// decodeRowKey is decodeRowHead with the key left in data: r.Key is
// empty, and key aliases data. A reader that only compares the key
// turns no key into a string.
func decodeRowKey(data []byte) (key []byte, r Row, enc, rest []byte, err error) {
	klen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < klen {
		return nil, r, nil, nil, fmt.Errorf("lsm: row: truncated key")
	}
	key = data[n : n+int(klen)]
	data = data[n+int(klen):]
	wt, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, r, nil, nil, fmt.Errorf("lsm: row: truncated write time")
	}
	r.WriteTime = time.Unix(0, int64(wt))
	data = data[n:]
	ttl, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, r, nil, nil, fmt.Errorf("lsm: row: truncated ttl")
	}
	r.TTL = time.Duration(ttl)
	data = data[n:]
	if len(data) < 1 {
		return nil, r, nil, nil, fmt.Errorf("lsm: row: truncated flags")
	}
	r.Tombstone = data[0]&rowFlagTombstone != 0
	data = data[1:]
	vlen, n := binary.Uvarint(data)
	if n <= 0 || uint64(len(data)-n) < vlen {
		return nil, r, nil, nil, fmt.Errorf("lsm: row: truncated value")
	}
	return key, r, data[n : n+int(vlen)], data[n+int(vlen):], nil
}

// decodeValue decodes the framed value enc of row r (as decodeRowHead
// returned them) into fresh memory.
func decodeValue(r Row, enc []byte) ([]byte, error) {
	if len(enc) == 0 && r.Tombstone {
		return nil, nil
	}
	v, err := frame.Decode(enc)
	if err != nil {
		return nil, fmt.Errorf("lsm: row %q: %w", r.Key, err)
	}
	return v, nil
}

// Segment file layout
//
//	"MUPSEG01" | rows (sorted by key) | index block | bloom block | footer
//
// index block: uvarint entryCount, then per entry uvarint keyLen, key,
// uvarint absolute file offset of the row. Every IndexEvery-th row is
// indexed (always including the first), so a point read seeks at most
// one index gap of rows. bloom block: a marshalled internal/bloom
// filter over every row key. footer (32 bytes, fixed): index offset,
// bloom offset, row count as little-endian uint64, then the magic
// again — Open validates both magics before trusting any offset.
const (
	segMagic      = "MUPSEG01"
	segFooterSize = 8*3 + len(segMagic)
)

// segment is one immutable sorted run, open for positional reads. It
// is reference counted: the engine's segment list holds one reference
// and every pinned read view one more, so a compaction that retires the
// segment closes and removes its file only after the last scan over it
// has finished.
type segment struct {
	seq  uint64
	path string
	fs   FS
	f    File

	indexKeys []string
	indexOffs []int64 // ascending; the first is the first row's offset
	dataEnd   int64   // first byte past the row region (= index offset)
	filter    *bloom.Filter
	bytes     int64 // total file size

	refs    atomic.Int32
	retired atomic.Bool // the manifest no longer owns the file
}

func segName(seq uint64) string { return fmt.Sprintf("seg-%06d.sst", seq) }

// bloomFPRate is the false positive rate of a segment's bloom filter.
const bloomFPRate = 0.01

// buildSegment encodes sorted rows into a complete segment file image.
// Rows must be sorted by Key and contain no duplicates.
func buildSegment(rows []Row, indexEvery int) []byte {
	filter := bloom.New(len(rows), bloomFPRate)
	buf := make([]byte, 0, 1<<16)
	buf = append(buf, segMagic...)
	var scratch []byte
	var idxKeys []string
	var idxOffs []int64
	for i, r := range rows {
		if i%indexEvery == 0 {
			idxKeys = append(idxKeys, r.Key)
			idxOffs = append(idxOffs, int64(len(buf)))
		}
		filter.Add(r.Key)
		buf, scratch = appendRow(buf, scratch, r)
	}
	indexOff := int64(len(buf))
	buf = binary.AppendUvarint(buf, uint64(len(idxKeys)))
	for i, k := range idxKeys {
		buf = binary.AppendUvarint(buf, uint64(len(k)))
		buf = append(buf, k...)
		buf = binary.AppendUvarint(buf, uint64(idxOffs[i]))
	}
	bloomOff := int64(len(buf))
	buf = filter.AppendMarshal(buf)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(indexOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(bloomOff))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rows)))
	buf = append(buf, segMagic...)
	return buf
}

// writeSegment persists sorted rows as segment file seq under dir,
// fsyncing file and directory, and returns the opened segment. The
// caller owns removing the file again if a later step of its state
// change fails.
func writeSegment(fs FS, dir string, seq uint64, rows []Row, indexEvery int) (*segment, int64, error) {
	img := buildSegment(rows, indexEvery)
	path := dir + "/" + segName(seq)
	f, err := fs.Create(path)
	if err != nil {
		return nil, 0, err
	}
	if _, err := f.Write(img); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Close(); err != nil {
		return nil, 0, err
	}
	if err := fs.SyncDir(dir); err != nil {
		return nil, 0, err
	}
	seg, err := openSegment(fs, dir, seq)
	if err != nil {
		return nil, 0, err
	}
	return seg, int64(len(img)), nil
}

// openSegment opens segment file seq under dir, reading its footer,
// sparse index, and bloom filter; row data stays on disk.
func openSegment(fs FS, dir string, seq uint64) (*segment, error) {
	path := dir + "/" + segName(seq)
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	fail := func(format string, args ...any) (*segment, error) {
		f.Close()
		return nil, fmt.Errorf("lsm: segment %s: %s", path, fmt.Sprintf(format, args...))
	}
	if size < int64(len(segMagic)+segFooterSize) {
		return fail("file too short (%d bytes)", size)
	}
	head := make([]byte, len(segMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return fail("read header: %v", err)
	}
	footer := make([]byte, segFooterSize)
	if _, err := f.ReadAt(footer, size-int64(segFooterSize)); err != nil {
		return fail("read footer: %v", err)
	}
	if string(head) != segMagic || string(footer[24:]) != segMagic {
		return fail("bad magic")
	}
	indexOff := int64(binary.LittleEndian.Uint64(footer[0:]))
	bloomOff := int64(binary.LittleEndian.Uint64(footer[8:]))
	rowCount := int64(binary.LittleEndian.Uint64(footer[16:]))
	if indexOff < int64(len(segMagic)) || bloomOff < indexOff || bloomOff > size-int64(segFooterSize) {
		return fail("corrupt footer offsets")
	}
	// Nothing read from the file sizes an allocation or bounds a read
	// before it is checked against the bytes that could hold it.
	if rowCount < 0 || rowCount > (indexOff-int64(len(segMagic)))/minRowBytes {
		return fail("corrupt footer row count %d", uint64(rowCount))
	}
	meta := make([]byte, size-int64(segFooterSize)-indexOff)
	if _, err := f.ReadAt(meta, indexOff); err != nil {
		return fail("read index/bloom: %v", err)
	}
	idx := meta[:bloomOff-indexOff]
	count, n := binary.Uvarint(idx)
	if n <= 0 {
		return fail("corrupt index count")
	}
	idx = idx[n:]
	if count > uint64(len(idx))/2 { // an entry is at least two bytes
		return fail("corrupt index count %d", count)
	}
	keys := make([]string, 0, count)
	offs := make([]int64, 0, count)
	prev := int64(len(segMagic)) - 1
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(idx)
		if n <= 0 || uint64(len(idx)-n) < klen {
			return fail("corrupt index entry %d", i)
		}
		key := string(idx[n : n+int(klen)])
		idx = idx[n+int(klen):]
		off, n := binary.Uvarint(idx)
		if n <= 0 {
			return fail("corrupt index offset %d", i)
		}
		idx = idx[n:]
		// Offsets must ascend inside the row region: get reads the block
		// between two neighbours.
		if off >= uint64(indexOff) || int64(off) <= prev {
			return fail("corrupt index offset %d", i)
		}
		prev = int64(off)
		keys = append(keys, key)
		offs = append(offs, prev)
	}
	// The index blocks tile the row region: the first row is indexed,
	// and only an empty region has no entries. A cursor reads the rows
	// block by block and a point read trusts the first block's start.
	if (count == 0) != (indexOff == int64(len(segMagic))) || (count > 0 && offs[0] != int64(len(segMagic))) {
		return fail("index does not start at the first row")
	}
	filter, err := bloom.Unmarshal(meta[bloomOff-indexOff:])
	if err != nil {
		return fail("%v", err)
	}
	s := &segment{
		seq: seq, path: path, fs: fs, f: f,
		indexKeys: keys, indexOffs: offs,
		dataEnd: indexOff, filter: filter, bytes: size,
	}
	s.refs.Store(1)
	return s, nil
}

// get returns the newest stored version of key in this segment (which
// is the only one: segments hold one version per key). ok reports
// whether the key is present; bytesRead is the data read off the
// FS for the probe. The bloom filter must be consulted by the
// caller (the engine counts skips). The block is read into *buf, grown
// when it is too small, and its keys are compared in place: a miss
// allocates nothing. Nothing returned aliases *buf: a hit's key is key
// itself and its value is decoded into fresh memory.
func (s *segment) get(key string, buf *[]byte) (r Row, ok bool, bytesRead int64, err error) {
	// Largest indexed key <= key bounds the block to read.
	i := sort.SearchStrings(s.indexKeys, key)
	if i < len(s.indexKeys) && s.indexKeys[i] == key {
		// exact index hit: block starts at the key itself
	} else if i == 0 {
		return Row{}, false, 0, nil // key sorts before every row
	} else {
		i--
	}
	start := s.indexOffs[i]
	end := s.dataEnd
	if i+1 < len(s.indexOffs) {
		end = s.indexOffs[i+1]
	}
	if n := int(end - start); cap(*buf) < n {
		*buf = make([]byte, n)
	}
	block := (*buf)[:end-start]
	if _, err := s.f.ReadAt(block, start); err != nil {
		return Row{}, false, int64(len(block)), fmt.Errorf("lsm: segment %s: read block: %w", s.path, err)
	}
	bytesRead = int64(len(block))
	for len(block) > 0 {
		k, row, enc, rest, err := decodeRowKey(block)
		if err != nil {
			return Row{}, false, bytesRead, fmt.Errorf("lsm: segment %s: %w", s.path, err)
		}
		if string(k) == key {
			row.Key = key
			if row.Value, err = decodeValue(row, enc); err != nil {
				return Row{}, false, bytesRead, fmt.Errorf("lsm: segment %s: %w", s.path, err)
			}
			return row, true, bytesRead, nil
		}
		if string(k) > key {
			return Row{}, false, bytesRead, nil
		}
		block = rest
	}
	return Row{}, false, bytesRead, nil
}

// release drops one reference. The last one closes the file, and
// removes it too once compaction has retired the segment.
func (s *segment) release() error {
	if s.refs.Add(-1) != 0 {
		return nil
	}
	err := s.f.Close()
	if s.retired.Load() {
		s.fs.Remove(s.path) // best effort: the manifest no longer owns it
	}
	return err
}

// scanChunk is how many bytes of whole index blocks a cursor reads off
// a segment at a time (at least one block, however large).
const scanChunk = 64 << 10

// cursor is one sorted source of a merge: the pinned memtable rows, or
// a segment's row region, read a chunk of whole index blocks at a time
// and decoded one row at a time. A segment row's value stays framed
// until value is called, so a row the merge steps past costs no frame
// decode.
type cursor struct {
	row Row    // current row; from a segment, its Value is still framed in enc
	enc []byte // aliases buf

	mem []Row // memtable source: the rows after row

	seg     *segment // segment source
	block   int      // next index block to read
	buf     []byte   // read buffer, reused chunk to chunk
	data    []byte   // undecoded rest of the chunk in buf
	started bool     // row holds a decoded row
	read    int64    // bytes read off the file
}

// next advances to the following row, reporting false at the end.
func (c *cursor) next() (bool, error) {
	if c.seg == nil {
		if len(c.mem) == 0 {
			return false, nil
		}
		c.row, c.mem = c.mem[0], c.mem[1:]
		return true, nil
	}
	if len(c.data) == 0 {
		if c.block == len(c.seg.indexOffs) {
			return false, nil
		}
		if err := c.fill(); err != nil {
			return false, err
		}
	}
	r, enc, rest, err := decodeRowHead(c.data)
	if err != nil {
		return false, fmt.Errorf("lsm: segment %s: %w", c.seg.path, err)
	}
	// A damaged file must not break the merge's order contract quietly.
	if c.started && r.Key <= c.row.Key {
		return false, fmt.Errorf("lsm: segment %s: row %q out of order", c.seg.path, r.Key)
	}
	c.row, c.enc, c.data, c.started = r, enc, rest, true
	return true, nil
}

// fill reads the next run of whole index blocks, up to scanChunk bytes.
func (c *cursor) fill() error {
	offs := c.seg.indexOffs
	start, j := offs[c.block], c.block+1
	for j < len(offs) && offs[j]-start < scanChunk {
		j++
	}
	end := c.seg.dataEnd
	if j < len(offs) {
		end = offs[j]
	}
	if n := int(end - start); cap(c.buf) < n {
		c.buf = make([]byte, n)
	} else {
		c.buf = c.buf[:n]
	}
	if _, err := c.seg.f.ReadAt(c.buf, start); err != nil {
		return fmt.Errorf("lsm: segment %s: read rows: %w", c.seg.path, err)
	}
	c.read += int64(len(c.buf))
	c.block, c.data = j, c.buf
	return nil
}

// value returns the current row's value, decoding it out of its frame
// into fresh memory when it came from a segment.
func (c *cursor) value() ([]byte, error) {
	if c.seg == nil {
		return c.row.Value, nil
	}
	v, err := decodeValue(c.row, c.enc)
	if err != nil {
		return nil, fmt.Errorf("lsm: segment %s: %w", c.seg.path, err)
	}
	return v, nil
}
