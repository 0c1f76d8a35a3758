package lsm

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
)

// manifest is the engine's root pointer: the set of live segment files
// (newest first), the active WAL sequence, and the next sequence
// number to allocate. It is replaced wholesale via write-temp → fsync →
// rename → fsync-dir, so a crash anywhere leaves either the old
// manifest or the new one, never a mix — the rename is the single
// commit point for flushes and compactions.
//
// The file is the JSON encoding of the manifest behind a header that
// lets a damaged file be told from a good one, as the WAL's records
// are:
//
//	"MUPMAN01" | u32 little-endian JSON length | u32 CRC-32 (IEEE) of
//	the JSON | JSON
//
// A truncated file fails the length check and a flipped bit the CRC, so
// a bad manifest fails to open instead of naming segments it was never
// written with. A bare JSON file (a store written before the header
// existed) still opens, unchecked.
type manifest struct {
	Version  int      `json:"version"`
	Next     uint64   `json:"next"`
	WALSeq   uint64   `json:"wal"`
	Segments []uint64 `json:"segments"`
}

const (
	manifestName    = "MANIFEST"
	manifestTmpName = "MANIFEST.tmp"
	manifestVersion = 1
	manifestMagic   = "MUPMAN01"
	manifestHeader  = len(manifestMagic) + 8
)

// writeManifest commits m as dir's manifest atomically and durably.
func writeManifest(fs FS, dir string, m manifest) error {
	m.Version = manifestVersion
	body, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	data := make([]byte, manifestHeader, manifestHeader+len(body))
	copy(data, manifestMagic)
	binary.LittleEndian.PutUint32(data[len(manifestMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(data[len(manifestMagic)+4:], crc32.ChecksumIEEE(body))
	data = append(data, body...)
	tmp := dir + "/" + manifestTmpName
	f, err := fs.Create(tmp)
	if err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: manifest: sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lsm: manifest: %w", err)
	}
	if err := fs.Rename(tmp, dir+"/"+manifestName); err != nil {
		return fmt.Errorf("lsm: manifest: commit: %w", err)
	}
	if err := fs.SyncDir(dir); err != nil {
		return fmt.Errorf("lsm: manifest: sync dir: %w", err)
	}
	return nil
}

// readManifest loads dir's manifest. ok is false when no manifest
// exists yet (a fresh directory).
func readManifest(fs FS, dir string) (m manifest, ok bool, err error) {
	f, err := fs.Open(dir + "/" + manifestName)
	if err != nil {
		return manifest{}, false, nil
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return manifest{}, false, err
	}
	data := make([]byte, size)
	if size > 0 {
		n, err := f.ReadAt(data, 0)
		if err != nil && err != io.EOF {
			return manifest{}, false, fmt.Errorf("lsm: manifest: %w", err)
		}
		data = data[:n]
	}
	if data, err = manifestBody(data); err != nil {
		return manifest{}, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return manifest{}, false, fmt.Errorf("lsm: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, false, fmt.Errorf("lsm: manifest: unsupported version %d", m.Version)
	}
	return m, true, nil
}

// manifestBody checks a manifest file's header and returns its JSON. A
// file that starts as JSON does is a headerless manifest, returned
// whole.
func manifestBody(data []byte) ([]byte, error) {
	if len(data) > 0 && data[0] == '{' {
		return data, nil
	}
	if len(data) < manifestHeader || string(data[:len(manifestMagic)]) != manifestMagic {
		return nil, fmt.Errorf("lsm: manifest: bad header")
	}
	n := binary.LittleEndian.Uint32(data[len(manifestMagic):])
	sum := binary.LittleEndian.Uint32(data[len(manifestMagic)+4:])
	body := data[manifestHeader:]
	if uint64(n) != uint64(len(body)) {
		return nil, fmt.Errorf("lsm: manifest: %d bytes, header says %d", len(body), n)
	}
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("lsm: manifest: checksum mismatch")
	}
	return body, nil
}
