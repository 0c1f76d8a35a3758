package core

import (
	"encoding/json"
	"reflect"
	"unsafe"

	"muppet/internal/event"
	"muppet/internal/slate"
)

// SlateCodec is the erased slate codec carried on FunctionSpec for
// typed update functions: the engines thread it into the slate cache
// so decoding happens once per cache fill and encoding once per flush
// or external read, instead of once per event inside the updater.
type SlateCodec = slate.Codec

// Codec translates a slate between its at-rest byte encoding and the
// application's slate type S. JSONCodec is the default; RawCodec keeps
// the bytes themselves as the "object" for applications that manage
// their own encoding.
type Codec[S any] interface {
	// Decode parses the at-rest encoding into a fresh *S. It must not
	// keep data, or anything that aliases it, once it returns (as
	// json.Unmarshaler must not): the slate cache rewrites the encoding
	// in place.
	Decode(data []byte) (*S, error)
	// AppendEncode appends the at-rest encoding of s to dst and
	// returns the extended slice.
	AppendEncode(dst []byte, s *S) ([]byte, error)
}

// JSONCodec encodes slates as JSON — the encoding every application in
// the paper's examples already used by hand. It is the default codec
// of Update. Note that a JSON-encoded int is the same ASCII decimal
// the classic counting updaters wrote, so migrating a counter to
// Update[int] leaves its slates at rest byte-for-byte identical.
//
// It is byte-identical to encoding/json: Decode gives what
// json.Unmarshal into a new S gives, error or not, and AppendEncode
// appends what json.Marshal returns, or returns its error. For plain
// types (see fieldPlan) a compiled plan does the work without
// encoding/json; a document or value the plan does not accept goes to
// encoding/json whole.
type JSONCodec[S any] struct{}

// Decode implements Codec.
func (JSONCodec[S]) Decode(data []byte) (*S, error) {
	return decodeJSON[S](planOf(reflect.TypeFor[S]()), data, nil)
}

// AppendEncode implements Codec.
func (JSONCodec[S]) AppendEncode(dst []byte, s *S) ([]byte, error) {
	return encodeJSON(planOf(reflect.TypeFor[S]()), dst, s)
}

// decodeJSON is JSONCodec[S].Decode with S's plan (nil: none) in hand.
//
// When S holds a string and the document is at most maxBlockDoc bytes,
// the value, a copy of the document and room for short string arrays
// are one block (newBlock): the decoded strings are slices of that
// copy, so any one of them keeps the whole block, the value included,
// alive. Nothing writes to the copy once the decode is done. The block
// is typed, so storing another string into a decoded field later is as
// safe as in any other value. With chunks the block is cut from a chunk
// those chunks hold for S, shared with other decodes of S, and keeps
// that chunk alive; without them it is one allocation of its own. A
// declined document goes to encoding/json whole, into a fresh *S.
func decodeJSON[S any](p *fieldPlan, data []byte, chunks *PayloadChunks) (*S, error) {
	if p != nil && p.strs && len(data) <= maxBlockDoc {
		var cursors *[blockClasses]any
		if chunks != nil {
			cursors = chunks.of(p)
		}
		s, doc, strs := newBlock[S](len(data), cursors)
		d := decoder{data: doc[:copy(doc, data)], strs: strs}
		if len(data) > 0 {
			d.doc = unsafe.String(&doc[0], len(data))
		}
		if p.decode(d, reflect.ValueOf(s).Elem()) {
			return s, nil
		}
		p = nil // declined: straight to encoding/json
	}
	s := new(S)
	if p != nil && p.decode(decoder{data: data}, reflect.ValueOf(s).Elem()) {
		return s, nil
	}
	var zero S
	*s = zero // a declined document may have been partly written
	if err := json.Unmarshal(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

// maxBlockDoc is the largest document decodeJSON places in one block
// with its value; blockStrings is the room a block keeps for the
// strings of short string arrays. Both stay small: every block pays
// 16 bytes a string, the largest payload the benchmark's workloads send
// is under 200 bytes, and a process's peak memory follows the bytes its
// payloads take. A larger document keeps a separate value and copy.
// blockClasses is the number of steps on newBlock's ladder, and
// chunkBytes the size of a chunk carved blocks are cut from: 16 KiB,
// about fifty tweets, so a worker thread starts one every fifty or so
// decodes of a type; a string kept from a payload keeps its whole chunk
// alive.
const (
	maxBlockDoc  = 256
	blockStrings = 2
	blockClasses = 7
	chunkBytes   = 16 << 10
)

// newBlock returns a value of S together with room for blockStrings
// strings and for an n-byte document, rounded up a ladder of sizes. It
// returns the value, the document room and the string room. Each step
// of the ladder is at most half again the one below, so a document
// fills more than two thirds of its room once it is past the first.
// The block is carved from cursors[class] when cursors is non-nil and
// allocated alone when it is nil.
func newBlock[S any](n int, cursors *[blockClasses]any) (*S, []byte, []string) {
	switch {
	case n <= 32:
		return block[S, [32]byte](cursors, 0)
	case n <= 48:
		return block[S, [48]byte](cursors, 1)
	case n <= 64:
		return block[S, [64]byte](cursors, 2)
	case n <= 96:
		return block[S, [96]byte](cursors, 3)
	case n <= 128:
		return block[S, [128]byte](cursors, 4)
	case n <= 192:
		return block[S, [192]byte](cursors, 5)
	}
	return block[S, [maxBlockDoc]byte](cursors, 6)
}

// blockOf is one block: a value, its string room and its document
// room D, an array of bytes.
type blockOf[S, D any] struct {
	v    S
	strs [blockStrings]string
	doc  D
}

// block returns a blockOf[S, D]'s three parts: carved from
// cursors[class] when cursors is non-nil, else allocated alone.
func block[S, D any](cursors *[blockClasses]any, class int) (*S, []byte, []string) {
	var b *blockOf[S, D]
	if cursors == nil {
		b = new(blockOf[S, D])
	} else {
		b = carveBlock[S, D](&cursors[class])
	}
	return &b.v, unsafe.Slice((*byte)(unsafe.Pointer(&b.doc)), unsafe.Sizeof(b.doc)), b.strs[:]
}

// PayloadChunks is the memory Payload carves one emitter's decoded
// payloads from: per payload type and step of newBlock's ladder, a
// cursor into a chunk of about chunkBytes. The engines' emitter holds
// one and is used by one goroutine at a time (a worker thread's), so
// carving takes no lock and hands no block out twice. The zero value
// is ready to use.
type PayloadChunks struct {
	cursors [][blockClasses]any // by fieldPlan.carve; each a *blockCursor
}

// of returns the cursors of p's type, making room for them on the first
// decode of that type.
func (pc *PayloadChunks) of(p *fieldPlan) *[blockClasses]any {
	if p.carve >= len(pc.cursors) {
		pc.cursors = append(pc.cursors, make([][blockClasses]any, p.carve+1-len(pc.cursors))...)
	}
	return &pc.cursors[p.carve]
}

// blockCursor is the unused tail of a chunk of blocks.
type blockCursor[S, D any] struct{ free []blockOf[S, D] }

// carveBlock cuts the next zero block from the cursor in slot, and
// starts a chunk of about chunkBytes when that one is used up. A block
// handed out is never written by the cursor again: the decode fills it,
// and a declined one is left as it is.
func carveBlock[S, D any](slot *any) *blockOf[S, D] {
	c, _ := (*slot).(*blockCursor[S, D])
	if c == nil {
		c = new(blockCursor[S, D])
		*slot = c
	}
	if len(c.free) == 0 {
		c.free = make([]blockOf[S, D], max(1, chunkBytes/unsafe.Sizeof(blockOf[S, D]{})))
	}
	b := &c.free[0]
	c.free = c.free[1:]
	return b
}

// encodeJSON is JSONCodec[S].AppendEncode with S's plan in hand. It
// does not keep s, so a value built on the caller's stack stays there:
// only what the plan declines reaches encoding/json, which keeps its
// argument, and that gets a shallow copy of *s (behind a pointer, so a
// pointer-receiver MarshalJSON still runs) or a nil *S.
func encodeJSON[S any](p *fieldPlan, dst []byte, s *S) ([]byte, error) {
	if b, ok := encodePlan(p, dst, s); ok {
		return b, nil
	}
	if s == nil {
		return marshalJSON(dst, (*S)(nil))
	}
	cp := *s
	return marshalJSON(dst, &cp)
}

// encodePlan appends s's encoding by the plan, or reports false where
// there is no plan or it declines s.
func encodePlan[S any](p *fieldPlan, dst []byte, s *S) ([]byte, bool) {
	if p == nil || s == nil {
		return dst, false
	}
	// Written to the stack first, the value grows dst once, as
	// json.Marshal's exactly sized result does, not once per doubling.
	var scratch [256]byte
	b, ok := p.encode(scratch[:0], reflect.ValueOf(s).Elem())
	if !ok {
		return dst, false
	}
	return append(dst, b...), true
}

// marshalJSON appends json.Marshal(v) to dst, or returns its error.
func marshalJSON(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(dst, b...), nil
}

// RawCodec is the compatibility codec: the slate object is the byte
// slice itself. An updater built with UpdateWith and RawCodec keeps
// full control of its encoding while still gaining the typed API's
// mutate-in-place contract and the decode-once cache slot (here a
// copy-once slot).
type RawCodec struct{}

// Decode implements Codec[[]byte]: it returns a private copy of the
// stored bytes (the object is mutable in place; the cache's encoding
// must not be).
func (RawCodec) Decode(data []byte) (*[]byte, error) {
	b := append([]byte(nil), data...)
	return &b, nil
}

// AppendEncode implements Codec[[]byte].
func (RawCodec) AppendEncode(dst []byte, s *[]byte) ([]byte, error) {
	return append(dst, *s...), nil
}

// Payload returns in.Value JSON-decoded into a *T, at most once per
// process: the engines' emitter remembers the object beside the input's
// bytes, and a re-publish of in.Value as is carries it to subscribers.
// The object is shared like in.Value, possibly across threads, and must
// not be modified. Other emitters (the Reference's) decode every call.
// The decode is JSONCodec's, so the object and the error are exactly
// json.Unmarshal's. For a small document the object and a copy of the
// bytes its strings are slices of are one block. Under the engines'
// emitter that block is cut from a 16 KiB chunk the emitter's worker
// thread owns and shares with its other payloads of T: a string kept
// from it (in a slate, say) keeps that whole chunk alive. Clone what a
// slate keeps, as topurls' U_top does with the URLs it keys its table
// by. Under other emitters the block is an allocation of its own.
func Payload[T any](emit Emitter, in event.Event) (*T, error) {
	memo, _ := emit.(payloadMemo)
	var chunks *PayloadChunks
	if memo != nil {
		if p, ok := memo.PayloadOf(in.Value).(*T); ok {
			return p, nil
		}
		chunks = memo.PayloadChunks()
	}
	p, err := decodeJSON[T](planOf(reflect.TypeFor[T]()), in.Value, chunks)
	if err != nil {
		return nil, err
	}
	if memo != nil {
		memo.NotePayload(in.Value, p)
	}
	return p, nil
}

// payloadMemo is the engines' emitter. It answers only for the input's
// own bytes (same array, same length), never for a copy or sub-slice,
// and holds the chunks its goroutine's payload decodes are carved from.
type payloadMemo interface {
	PayloadOf(value []byte) any
	NotePayload(value []byte, decoded any)
	PayloadChunks() *PayloadChunks
}

// PublishPayload publishes v, JSON-encoded, to stream under key: the
// write side of Payload. The engines' emitter encodes v straight into
// the arena Publish copies values into, so a steady-state publish
// allocates nothing and v may live on the caller's stack; other
// emitters (the Reference's) get the encoding through Publish. The
// encoding is JSONCodec's, so the bytes and the error are exactly
// json.Marshal's. On the engines a stream the function may not publish
// to is refused before v is encoded; an encode error (a NaN, say)
// publishes nothing.
func PublishPayload[T any](emit Emitter, stream, key string, v *T) error {
	a, ok := emit.(valueArena)
	if !ok {
		b, err := JSONCodec[T]{}.AppendEncode(nil, v)
		if err != nil {
			return err
		}
		return emit.Publish(stream, key, b)
	}
	vals, err := a.Arena(stream)
	if err != nil {
		return err
	}
	vals, err = JSONCodec[T]{}.AppendEncode(vals, v)
	if err != nil {
		return err
	}
	a.PublishArena(stream, key, vals)
	return nil
}

// valueArena is the engines' emitter. Arena returns the arena to append
// one value for stream to, or Publish's error for it; PublishArena
// records that value, handed back as the extended arena.
type valueArena interface {
	Arena(stream string) ([]byte, error)
	PublishArena(stream, key string, vals []byte)
}

// DecodedUpdater is implemented by update functions built with the
// typed constructors (Update, UpdateWith). The engines detect it and
// route the invocation through the decoded slate cache: the function
// receives the live slate object instead of bytes, and the at-rest
// encoding is produced once per flush batch rather than once per
// event. The plain Update method remains the byte-slate fallback used
// by the Reference executor (and any path without a decoded cache);
// both paths run the same application function through the same codec,
// so they produce identical slates.
type DecodedUpdater interface {
	Updater
	// UpdateDecoded processes one input event with the decoded slate
	// object — always a non-nil *S, zero-valued when no slate exists
	// for the key yet. The function mutates it in place; after the
	// call the object (mutated or not) is the slate.
	UpdateDecoded(emit Emitter, in event.Event, slate any)
	// SlateCodec returns the erased codec the engines hand to the
	// slate cache.
	SlateCodec() SlateCodec
}

// Update builds a typed update function with the default JSONCodec:
// the function receives the decoded slate object s — never nil,
// zero-valued for a missing slate — and mutates it in place instead of
// calling Emitter.ReplaceSlate (which typed updaters must not call;
// the mutated object is the slate). Publishing events through emit
// works exactly as in the classic API.
//
// Every invocation retains the object as the slate, mutated or not —
// there is no typed equivalent of "return without ReplaceSlate". An
// updater that must leave missing slates uncreated on some events
// (e.g. rejecting unparseable input without materializing a zero
// slate) should validate upstream in a map function, or stay on the
// classic byte-slate API.
func Update[S any](name string, fn func(emit Emitter, in event.Event, s *S)) Updater {
	return UpdateWith[S](name, JSONCodec[S]{}, fn)
}

// UpdateWith builds a typed update function with an explicit codec.
func UpdateWith[S any](name string, codec Codec[S], fn func(emit Emitter, in event.Event, s *S)) Updater {
	return &typedUpdater[S]{name: name, codec: codec, fn: fn}
}

// typedUpdater adapts a typed update function onto the Updater surface
// and carries its codec for the engines.
type typedUpdater[S any] struct {
	name  string
	codec Codec[S]
	fn    func(emit Emitter, in event.Event, s *S)
}

// Name implements Updater.
func (u *typedUpdater[S]) Name() string { return u.name }

// Update implements Updater — the byte-slate fallback path: decode,
// run the function, re-encode, ReplaceSlate. A slate that fails to
// decode is treated as missing (the function starts from a zero
// value), matching the lenient json.Unmarshal handling the hand-
// written updaters used; an encode failure leaves the slate unchanged.
func (u *typedUpdater[S]) Update(emit Emitter, in event.Event, sl []byte) {
	var s *S
	if sl != nil {
		s, _ = u.codec.Decode(sl)
	}
	if s == nil {
		s = new(S)
	}
	u.fn(emit, in, s)
	b, err := u.codec.AppendEncode(nil, s)
	if err != nil {
		return
	}
	emit.ReplaceSlate(b)
}

// UpdateDecoded implements DecodedUpdater.
func (u *typedUpdater[S]) UpdateDecoded(emit Emitter, in event.Event, slate any) {
	u.fn(emit, in, slate.(*S))
}

// SlateCodec implements DecodedUpdater.
func (u *typedUpdater[S]) SlateCodec() SlateCodec {
	e := erasedCodec[S]{c: u.codec}
	if _, e.json = u.codec.(JSONCodec[S]); e.json {
		e.plan = planOf(reflect.TypeFor[S]())
	}
	return e
}

// nilFn reports whether the updater was built with a nil function
// body; App.Validate surfaces it as a registration error instead of a
// nil-dereference panic mid-stream.
func (u *typedUpdater[S]) nilFn() bool { return u.fn == nil }

// erasedCodec adapts the typed Codec[S] onto the erased SlateCodec the
// slate cache stores per entry. Under JSONCodec it holds S's plan, so a
// cache fill, a flush or a store row does not look the plan up. Its
// slate.Alloc[S] gives the cache a new slate's zero S inside the
// slate's cache entry.
type erasedCodec[S any] struct {
	slate.Alloc[S]
	c    Codec[S]
	json bool       // c is JSONCodec[S]
	plan *fieldPlan // S's plan when c is JSONCodec[S], else nil
}

func (e erasedCodec[S]) Decode(data []byte) (any, error) {
	var s *S
	var err error
	if e.plan != nil {
		s, err = decodeJSON[S](e.plan, data, nil)
	} else {
		s, err = e.c.Decode(data)
	}
	if err != nil || s == nil {
		// A typed nil must not leak into the erased world as a
		// non-nil any.
		return nil, err
	}
	return s, nil
}

// AppendEncode encodes v, a *S the cache already holds on the heap:
// what the plan declines goes to encoding/json as it is, not copied.
func (e erasedCodec[S]) AppendEncode(dst []byte, v any) ([]byte, error) {
	if e.json {
		if b, ok := encodePlan(e.plan, dst, v.(*S)); ok {
			return b, nil
		}
		return marshalJSON(dst, v)
	}
	return e.c.AppendEncode(dst, v.(*S))
}

// FieldReader implements slate.FieldCodec: queries read a typed slate
// as the object it is instead of encoding it and parsing that back.
func (e erasedCodec[S]) FieldReader(paths []string) (slate.FieldReader, bool) {
	if e.plan == nil || !e.plan.reads {
		return nil, false
	}
	return e.plan.reader(paths)
}
