package lsm

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// WAL file layout: a sequence of records, each
//
//	u32 LE payload length | u32 LE CRC-32 (IEEE) of payload | payload
//
// where payload is uvarint rowCount followed by that many rows in the
// shared row encoding. One record per Put batch — the whole batch
// becomes durable with a single Write+Sync (group commit). The reader
// stops at the first short or CRC-mismatching record, which is exactly
// the torn tail a power cut can leave; everything before it was
// acknowledged and everything after it was not.
const walHeaderSize = 8

func walName(seq uint64) string { return fmt.Sprintf("wal-%06d.log", seq) }

// walWriter appends group-commit records to one WAL file.
type walWriter struct {
	f       File
	path    string
	seq     uint64
	buf     []byte // reused record-build buffer
	scratch []byte // reused value-framing buffer
	bytes   int64  // total bytes written to this file
}

// newWAL creates WAL file seq under dir and makes its directory entry
// durable.
func newWAL(fs FS, dir string, seq uint64) (*walWriter, error) {
	path := dir + "/" + walName(seq)
	f, err := fs.Create(path)
	if err != nil {
		return nil, err
	}
	if err := fs.SyncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, path: path, seq: seq}, nil
}

// append writes rows as one record and fsyncs. When it returns nil the
// rows are durable; any error means the batch must not be
// acknowledged.
func (w *walWriter) append(rows []Row) (n int64, err error) {
	w.buf = w.buf[:0]
	w.buf = append(w.buf, 0, 0, 0, 0, 0, 0, 0, 0) // header placeholder
	w.buf = binary.AppendUvarint(w.buf, uint64(len(rows)))
	for _, r := range rows {
		w.buf, w.scratch = appendRow(w.buf, w.scratch, r)
	}
	payload := w.buf[walHeaderSize:]
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.f.Write(w.buf); err != nil {
		return 0, fmt.Errorf("lsm: wal %s: %w", w.path, err)
	}
	if err := w.f.Sync(); err != nil {
		return 0, fmt.Errorf("lsm: wal %s: sync: %w", w.path, err)
	}
	w.bytes += int64(len(w.buf))
	return int64(len(w.buf)), nil
}

func (w *walWriter) close() error { return w.f.Close() }

// readWAL replays WAL file seq under dir, calling fn for each row of
// each intact record in write order. A truncated or corrupt tail ends
// replay silently — those bytes were never acknowledged.
func readWAL(fs FS, dir string, seq uint64, fn func(Row)) error {
	path := dir + "/" + walName(seq)
	f, err := fs.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return err
	}
	data := make([]byte, size)
	if size > 0 {
		if n, err := f.ReadAt(data, 0); err != nil && err != io.EOF {
			return fmt.Errorf("lsm: wal %s: %w", path, err)
		} else {
			data = data[:n]
		}
	}
	for len(data) >= walHeaderSize {
		plen := binary.LittleEndian.Uint32(data[0:])
		sum := binary.LittleEndian.Uint32(data[4:])
		if uint64(len(data)-walHeaderSize) < uint64(plen) {
			break // torn record: payload never fully hit disk
		}
		payload := data[walHeaderSize : walHeaderSize+int(plen)]
		if crc32.ChecksumIEEE(payload) != sum {
			break // torn or corrupt: drop it and everything after
		}
		count, n := binary.Uvarint(payload)
		if n <= 0 {
			break
		}
		payload = payload[n:]
		for i := uint64(0); i < count; i++ {
			row, rest, err := decodeRow(payload)
			if err != nil {
				return fmt.Errorf("lsm: wal %s: record with valid CRC failed to decode: %w", path, err)
			}
			fn(row)
			payload = rest
		}
		data = data[walHeaderSize+int(plen):]
	}
	return nil
}
