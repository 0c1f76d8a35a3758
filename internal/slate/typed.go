package slate

import "slices"

// Codec is the erased slate codec the typed application API threads
// through the stack: it turns a slate's at-rest byte encoding into a
// live decoded object and back. The cache stores the decoded object
// alongside (or instead of) the encoded bytes, so a typed update
// function pays the decode once per cache fill and the encode once per
// flush or external read — not once per event.
//
// The concrete values behind the `any` are pointers to the
// application's slate type S; a codec only ever sees values it produced
// itself (New or Decode) or the cache's zero S, so the type assertion
// inside AppendEncode is safe by construction. A Codec embeds Alloc[S],
// which supplies New and the cache's entry allocation.
type Codec interface {
	// New returns a freshly allocated zero-value slate object, the
	// state an updater starts from when no slate exists for the key.
	New() any
	// Decode parses the at-rest encoding into a live object. It must
	// not keep data, or anything that aliases it, once it returns: the
	// cache rewrites a slate's encoding in place.
	Decode(data []byte) (any, error)
	// AppendEncode appends the at-rest encoding of v to dst and
	// returns the extended slice.
	AppendEncode(dst []byte, v any) ([]byte, error)

	// newEntry is Alloc's: a new slate's entry with a zero S inside.
	newEntry(k Key, room int) (*entry, any)
}

// Kind says what a Scalar holds.
type Kind uint8

// The kinds of the JSON view of a slate. A FieldReader produces only
// Absent through String; Composite belongs to the query executor's JSON
// view, which reads whole objects and arrays.
const (
	Absent    Kind = iota // no such field
	Null                  // JSON null
	Bool                  // Str is "true" or "false"
	Number                // Num
	String                // Str
	Composite             // Str is the marshaled object or array
)

// Scalar is one field of a slate as its JSON view shows it: what
// json.Unmarshal into an `any` would have put at that path.
type Scalar struct {
	Kind Kind
	Num  float64
	Str  string
}

// FieldReader reads the paths it was compiled for off one decoded slate
// object into dst, one Scalar per path. It reports false when the
// object would not encode (its JSON view does not exist); dst is then
// unspecified. It only reads, allocates nothing for numbers and bools,
// and copies no bytes out of the object — strings are immutable — so it
// is safe to run under a cache shard lock.
type FieldReader func(decoded any, dst []Scalar) bool

// FieldCodec is an optional capability of a Codec, found by type
// assertion: reading named fields straight off the decoded object
// instead of encoding it and parsing the encoding back. A codec offers
// it only where the answer is exactly the JSON view's; anything else it
// declines, and the reader falls back to that view.
type FieldCodec interface {
	Codec
	// FieldReader compiles dotted paths ("" is the whole value) into
	// one reader, or declines the set with ok == false.
	FieldReader(paths []string) (read FieldReader, ok bool)
}

// encodeLocked materializes e.value from e.decoded when the decoded
// object is newer than the last encoding. Caller holds sh's lock and
// has checked e.pins == 0 (an updater may be mutating a pinned object
// concurrently). On encode failure the entry keeps its previous
// encoding and stays stale; every failure counts in EncodeErrors, and
// the first since the last success poisons the entry — counted in
// Poisoned, reported to cfg.OnPoison — until an encode succeeds.
//
// The codec writes into the shard's scratch, so a failed encode leaves
// e.value as it was; a good one is copied into the entry's room (hold).
func (s *Sharded) encodeLocked(sh *shard, e *entry) error {
	if !e.stale {
		return nil
	}
	b, err := e.codec.AppendEncode(sh.enc[:0], e.decoded)
	if err != nil {
		sh.stats.EncodeErrors++
		if !e.poisoned {
			e.poisoned = true
			sh.stats.Poisoned++
			if s.cfg.OnPoison != nil {
				s.cfg.OnPoison(e.key)
			}
		}
		return err
	}
	sh.enc = b
	e.hold(b)
	e.stale = false
	sh.unpoisonLocked(e)
	return nil
}

// unpoisonLocked takes e out of the Poisoned count: its encode
// succeeded, or it is leaving the cache or being overwritten.
func (sh *shard) unpoisonLocked(e *entry) {
	if e.poisoned {
		e.poisoned = false
		sh.stats.Poisoned--
	}
}

// snapshotLocked returns the entry's encoded bytes for read paths
// (Get, Peek, eviction is separate): the current encoding when the
// entry is quiescent, the last materialized encoding while an updater
// holds the decoded object pinned. A pinned entry that has never been
// encoded reads as nil — the first update for the key has not
// completed yet, so "no slate" is a linearizable answer. An encode
// failure also serves the last materialized encoding. The bytes are
// the caller's to keep: handing them out ends the entry's room, so no
// later encode rewrites them.
func (s *Sharded) snapshotLocked(sh *shard, e *entry) []byte {
	if e.pins == 0 {
		s.encodeLocked(sh, e)
	}
	if e.value != nil {
		e.room = nil
	}
	return slices.Clip(e.value)
}

// setBytesLocked replaces the entry's contents with an encoded value
// (the classic byte-slate Put), discarding any decoded object: the
// bytes are now the source of truth. They are the caller's, so the
// entry's room is left as it was.
func (e *entry) setBytesLocked(value []byte) {
	e.value = value
	e.decoded = nil
	e.codec = nil
	e.stale = false
}

// setDecodedLocked replaces the entry's contents with a decoded object
// (the typed PutDecoded), releasing the caller's pin if one is held.
// The previous encoding is kept as the pinned-read snapshot until the
// next encode refreshes it.
func (e *entry) setDecodedLocked(v any, c Codec) {
	if e.pins > 0 {
		e.pins--
	}
	e.decoded = v
	e.codec = c
	e.stale = true
}
