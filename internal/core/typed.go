package core

import (
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode"
	"unicode/utf8"

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
	// Decode parses the at-rest encoding into a fresh *S.
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
type JSONCodec[S any] struct{}

// Decode implements Codec.
func (JSONCodec[S]) Decode(data []byte) (*S, error) {
	s := new(S)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

// AppendEncode implements Codec.
func (JSONCodec[S]) AppendEncode(dst []byte, s *S) ([]byte, error) {
	b, err := json.Marshal(s)
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
func Payload[T any](emit Emitter, in event.Event) (*T, error) {
	memo, _ := emit.(payloadMemo)
	if memo != nil {
		if p, ok := memo.PayloadOf(in.Value).(*T); ok {
			return p, nil
		}
	}
	p := new(T)
	if err := json.Unmarshal(in.Value, p); err != nil {
		return nil, err
	}
	if memo != nil {
		memo.NotePayload(in.Value, p)
	}
	return p, nil
}

// payloadMemo is the engines' emitter. It answers only for the input's
// own bytes (same array, same length), never for a copy or sub-slice.
type payloadMemo interface {
	PayloadOf(value []byte) any
	NotePayload(value []byte, decoded any)
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
	if _, ok := u.codec.(JSONCodec[S]); ok {
		e.plan = planFor(reflect.TypeFor[S]())
	}
	return e
}

// nilFn reports whether the updater was built with a nil function
// body; App.Validate surfaces it as a registration error instead of a
// nil-dereference panic mid-stream.
func (u *typedUpdater[S]) nilFn() bool { return u.fn == nil }

// erasedCodec adapts the typed Codec[S] onto the erased SlateCodec the
// slate cache stores per entry.
type erasedCodec[S any] struct {
	c    Codec[S]
	plan *fieldPlan // nil unless c is JSONCodec[S] and S's JSON view is plain
}

func (e erasedCodec[S]) New() any { return new(S) }

func (e erasedCodec[S]) Decode(data []byte) (any, error) {
	s, err := e.c.Decode(data)
	if err != nil || s == nil {
		// A typed nil must not leak into the erased world as a
		// non-nil any.
		return nil, err
	}
	return s, nil
}

func (e erasedCodec[S]) AppendEncode(dst []byte, v any) ([]byte, error) {
	return e.c.AppendEncode(dst, v.(*S))
}

// FieldReader implements slate.FieldCodec: queries read a typed slate
// as the object it is instead of encoding it and parsing that back.
func (e erasedCodec[S]) FieldReader(paths []string) (slate.FieldReader, bool) {
	if e.plan == nil {
		return nil, false
	}
	return e.plan.reader(paths)
}

// fieldPlan is the reflection plan of a slate type S under JSONCodec,
// built once when the updater is registered. Its contract is exactness:
// for every path it answers, the value is the one json.Marshal followed
// by json.Unmarshal into an `any` would show, and it reports an object
// Marshal would refuse (a non-finite float). So it covers only types
// whose JSON view it can reproduce without running the encoder — S a
// bool, integer, float or string, or a struct of such fields and of
// structs of them, every field exported, named and untagged or tagged
// with a bare name. An embedded or unexported field, a tag option
// (omitempty, string) or "-", a pointer, map, slice, array or interface,
// a Marshaler or TextMarshaler anywhere, and json.Number all make
// planFor return nil: the codec then declines and queries take the JSON
// view. So do RawCodec and custom codecs, whose encoding is theirs.
type fieldPlan struct {
	leaves map[string][]int // dotted JSON path of each scalar field -> struct index path; "" is S, when a scalar
	inner  map[string]bool  // paths that are structs ("" for S): objects, not scalars
	floats [][]int          // the float leaves; a NaN or Inf in one fails Marshal
}

var (
	jsonMarshaler = reflect.TypeFor[json.Marshaler]()
	textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()
)

func planFor(t reflect.Type) *fieldPlan {
	p := &fieldPlan{leaves: map[string][]int{}, inner: map[string]bool{}}
	if !p.add(t, "", nil) {
		return nil
	}
	return p
}

// add plans the value of type t found at path; false declines S.
func (p *fieldPlan) add(t reflect.Type, path string, index []int) bool {
	if pt := reflect.PointerTo(t); pt.Implements(jsonMarshaler) || pt.Implements(textMarshaler) || t == reflect.TypeFor[json.Number]() {
		return false
	}
	switch k := t.Kind(); {
	case k == reflect.Float32, k == reflect.Float64:
		p.floats = append(p.floats, index)
		p.leaves[path] = index
	case k == reflect.Bool, k == reflect.String, k >= reflect.Int && k <= reflect.Uintptr:
		p.leaves[path] = index
	case k == reflect.Struct:
		p.inner[path] = true
		for i := range t.NumField() {
			f := t.Field(i)
			name := f.Name
			if tag := f.Tag.Get("json"); tag != "" {
				name = tag
			}
			sub := name
			if path != "" {
				sub = path + "." + name
			}
			_, dup := p.leaves[sub]
			if f.Anonymous || !f.IsExported() || !plainName(name) || dup || p.inner[sub] ||
				!p.add(f.Type, sub, append(index[:len(index):len(index)], i)) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// plainName reports whether a field name is letters, digits and
// underscores only — which rules out every tag option, "-", and a dot
// that a dotted path could not tell from a nesting step.
func plainName(name string) bool {
	for _, c := range name {
		if c != '_' && !unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return name != ""
}

// reader compiles paths; it declines a path that names a struct (the
// whole value of a struct S included), whose JSON view is an object. A
// path that names nothing — a missing field, or a step through a
// scalar — reads as Absent, as it does in the JSON view.
func (p *fieldPlan) reader(paths []string) (slate.FieldReader, bool) {
	type leaf struct {
		index []int
		ok    bool
	}
	leaves := make([]leaf, len(paths))
	for i, path := range paths {
		if _, scalar := p.leaves[""]; scalar {
			path = "" // a scalar slate has no fields: every path is the value
		}
		if p.inner[path] {
			return nil, false
		}
		leaves[i].index, leaves[i].ok = p.leaves[path]
	}
	return func(decoded any, dst []slate.Scalar) bool {
		v := reflect.ValueOf(decoded).Elem()
		for _, index := range p.floats {
			if f := fieldAt(v, index).Float(); math.IsNaN(f) || math.IsInf(f, 0) {
				return false
			}
		}
		for i, l := range leaves {
			dst[i] = slate.Scalar{}
			if l.ok {
				dst[i] = scalarOf(fieldAt(v, l.index))
			}
		}
		return true
	}, true
}

func fieldAt(v reflect.Value, index []int) reflect.Value {
	if len(index) == 0 {
		return v
	}
	return v.FieldByIndex(index)
}

// scalarOf is the JSON round trip of one scalar without the JSON:
// integers become the nearest float64, as parsing their decimal form
// does; a float32 goes through its own shortest decimal form; invalid
// UTF-8 becomes U+FFFD byte for byte.
func scalarOf(v reflect.Value) slate.Scalar {
	switch {
	case v.Kind() == reflect.Bool:
		return slate.Scalar{Kind: slate.Bool, Str: strconv.FormatBool(v.Bool())}
	case v.Kind() == reflect.String:
		s := v.String()
		if !utf8.ValidString(s) {
			s = string([]rune(s))
		}
		return slate.Scalar{Kind: slate.String, Str: s}
	case v.Kind() == reflect.Float32:
		f, _ := strconv.ParseFloat(strconv.FormatFloat(v.Float(), 'g', -1, 32), 64)
		return slate.Scalar{Kind: slate.Number, Num: f}
	case v.CanFloat():
		return slate.Scalar{Kind: slate.Number, Num: v.Float()}
	case v.CanInt():
		return slate.Scalar{Kind: slate.Number, Num: float64(v.Int())}
	}
	return slate.Scalar{Kind: slate.Number, Num: float64(v.Uint())}
}
