package slate

import "muppet/internal/frame"

// Key identifies a slate: the pair <update function U, event key k>
// uniquely determines a slate (Section 3) — the same event key yields
// different slates for different updaters.
type Key struct {
	Updater string
	Key     string
}

// String renders the slate key as updater/key, matching the HTTP fetch
// URI layout of Section 4.4.
func (k Key) String() string { return k.Updater + "/" + k.Key }

// Storage framing: the codec itself lives in internal/frame so the LSM
// storage engine (which sits below this package in the import graph)
// can share it; AppendEncode and Decode are its slate-facing names. See
// the frame package doc for the header layout.

// AppendEncode appends the framed encoding of raw to dst and returns
// the extended buffer. With a dst of sufficient capacity the encode
// performs no allocation: small slates skip deflate entirely, and
// larger ones run through a pooled flate.Writer. When deflate does not
// shrink the payload (incompressible slates) the raw framing is stored
// instead, so the stored form is never more than one byte larger than
// the slate.
func AppendEncode(dst, raw []byte) []byte { return frame.AppendEncode(dst, raw) }

// Decode reverses AppendEncode. Stored bytes that do not begin with a
// frame header of the current version are corrupt, and an error.
func Decode(stored []byte) ([]byte, error) { return frame.Decode(stored) }
