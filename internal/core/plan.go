package core

import (
	"bytes"
	"encoding"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"muppet/internal/slate"
)

// fieldPlan is the compiled JSON plan of one Go type, built once per
// type and cached (planOf). It does three jobs for JSONCodec: it decodes
// (JSONCodec.Decode, Payload), encodes (JSONCodec.AppendEncode) and
// reads fields for queries (FieldReader), all without encoding/json.
//
// A plan exists only for a type whose JSON it can reproduce exactly: a
// bool, an integer of any size, a float, a string, a slice of strings,
// or a struct of such fields and of structs of them. Every struct field
// is exported, not embedded, and named with ASCII letters, digits and
// '_' — untagged, or tagged with a bare name and at most the omitempty
// option — and no two names of one struct differ only in case. A
// Marshaler, Unmarshaler, TextMarshaler or TextUnmarshaler anywhere,
// json.Number, a pointer, map, interface or array, the tag options
// string and omitzero, and "-" all leave the type without a plan: the
// codec then runs encoding/json.
//
// Within its types the plan never errors; it succeeds or declines. A
// document it does not accept (see decoder) and a value it cannot write
// byte for byte as json.Marshal would (a string needing an escape, a
// NaN or Inf) are handed to encoding/json whole, so every error and
// every edge case is encoding/json's own.
type fieldPlan struct {
	kind   reflect.Kind
	bits   int         // a number's bit size
	fields []planField // a struct's fields, in declaration order
	floats [][]int     // index path of every float in the type; a NaN or Inf fails Marshal
	// reads: the plan also answers field reads — no omitempty and no
	// slice anywhere in the type, so every field is a scalar that is
	// always present in the JSON view, or a struct of them.
	reads bool
	// strs: the type holds a string (or a slice of them) somewhere, so a
	// decode may hand out slices of the document.
	strs bool
	// carve: where a PayloadChunks keeps the cursors Payload's decodes
	// of the type are carved from; given to every plan with strs.
	carve int
}

// planField is one struct field: its JSON name and the plan of its type.
type planField struct {
	name      string
	key       string // `"name":`, as Marshal writes it
	index     int
	omitEmpty bool
	plan      *fieldPlan
}

var (
	plans sync.Map // reflect.Type -> *fieldPlan; nil when the type has none
	// carves counts the plans given a fieldPlan.carve.
	carves atomic.Int32
	// customJSON are the interfaces through which a type takes over its
	// own encoding or decoding.
	customJSON = []reflect.Type{
		reflect.TypeFor[json.Marshaler](), reflect.TypeFor[encoding.TextMarshaler](),
		reflect.TypeFor[json.Unmarshaler](), reflect.TypeFor[encoding.TextUnmarshaler](),
	}
)

// planOf returns t's plan, or nil when encoding/json must handle t.
func planOf(t reflect.Type) *fieldPlan {
	if p, ok := plans.Load(t); ok {
		return p.(*fieldPlan)
	}
	p := buildPlan(t)
	plans.Store(t, p)
	return p
}

func buildPlan(t reflect.Type) *fieldPlan {
	for _, c := range customJSON {
		if reflect.PointerTo(t).Implements(c) {
			return nil
		}
	}
	if t == reflect.TypeFor[json.Number]() {
		return nil
	}
	p := &fieldPlan{kind: t.Kind(), reads: true}
	switch k := p.kind; {
	case k == reflect.Float32, k == reflect.Float64:
		p.bits = t.Bits()
		p.floats = [][]int{nil}
	case k >= reflect.Int && k <= reflect.Uintptr:
		p.bits = t.Bits()
	case k == reflect.Bool:
	case k == reflect.String:
		p.strs = true
	case k == reflect.Slice:
		// The element kind is checked first: a struct holding a slice of
		// itself must not recurse.
		if t.Elem().Kind() != reflect.String || planOf(t.Elem()) == nil {
			return nil
		}
		p.reads, p.strs = false, true
	case k == reflect.Struct:
		for i := range t.NumField() {
			f := t.Field(i)
			name, opt, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			sub := planOf(f.Type)
			if f.Anonymous || !f.IsExported() || !plainName(name) || (opt != "" && opt != "omitempty") || sub == nil {
				return nil
			}
			if dup, folded := p.field(name); dup >= 0 || folded {
				return nil
			}
			p.fields = append(p.fields, planField{name, `"` + name + `":`, i, opt != "", sub})
			p.reads = p.reads && sub.reads && opt == ""
			p.strs = p.strs || sub.strs
			for _, fl := range sub.floats {
				p.floats = append(p.floats, append([]int{i}, fl...))
			}
		}
	default:
		return nil
	}
	if p.strs {
		p.carve = int(carves.Add(1) - 1)
	}
	return p
}

// plainName reports whether a field name is ASCII letters, digits and
// underscores only — which rules out every tag option, "-", anything
// encoding/json would escape, and a dot that a dotted path could not
// tell from a nesting step.
func plainName(name string) bool {
	for _, c := range []byte(name) {
		if c != '_' && (c < '0' || c > '9') && (c < 'a' || c > 'z') && (c < 'A' || c > 'Z') {
			return false
		}
	}
	return name != ""
}

// field returns the position in p.fields of the field named exactly
// name, or -1. folded reports a field whose name matches name only as
// encoding/json folds keys (strings.EqualFold, under which a non-ASCII
// rune such as U+212A matches an ASCII letter).
func (p *fieldPlan) field(name string) (at int, folded bool) {
	for i := range p.fields {
		if p.fields[i].name == name {
			return i, false
		}
	}
	for i := range p.fields {
		if strings.EqualFold(p.fields[i].name, name) {
			return -1, true
		}
	}
	return -1, false
}

// reader compiles paths for a plan that answers reads. It declines a
// path that names a struct (the whole value of a struct S included),
// whose JSON view is an object. A path that names nothing — a missing
// field, or a step through a scalar — reads as Absent, as it does in the
// JSON view. A scalar slate has no fields: every path is the value.
func (p *fieldPlan) reader(paths []string) (slate.FieldReader, bool) {
	type leaf struct {
		index []int
		ok    bool
	}
	leaves := make([]leaf, len(paths))
	for i, path := range paths {
		q, index := p, []int(nil)
		if p.kind == reflect.Struct && path != "" {
			for step := range strings.SplitSeq(path, ".") {
				at, _ := q.field(step)
				if at < 0 {
					q = nil
					break
				}
				q, index = q.fields[at].plan, append(index, q.fields[at].index)
			}
		}
		if q != nil && q.kind == reflect.Struct {
			return nil, false
		}
		leaves[i] = leaf{index, q != nil}
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

// decode parses d.data into v, the zero value of the plan's type. On
// false v may hold part of the document: the caller re-zeroes it.
func (p *fieldPlan) decode(d decoder, v reflect.Value) bool {
	ok := d.value(p, v)
	d.space()
	return ok && d.i == len(d.data)
}

// decoder reads the subset of JSON the plan accepts:
//   - keys that match a field exactly, and unknown keys whose value is
//     a string, number or boolean (skipped);
//   - strings with no escape and no control byte, in valid UTF-8;
//   - numbers on the JSON grammar that strconv parses at the field's
//     bit size (so an integral literal for an integer field);
//   - true and false, and arrays of strings ([] is empty, not nil).
//
// It declines everything else: an escape, null, a key that matches a
// field only case-insensitively, an unknown key holding an object or
// array, an overflow, trailing bytes, a syntax error, and any value of
// the wrong type. A duplicate key is accepted: the last one wins, and a
// repeated object merges into the first, as in encoding/json.
//
// Decoded strings are slices of one string copy of the document, never
// one allocation per field. The copy is doc, which decodeJSON places in
// one block with the decoded struct and strs, the room string arrays
// take their backing from (see stringArray); or, with doc left empty, a
// copy made on the first non-empty string. A decoded string keeps its
// copy alive, and in the block case the struct too.
type decoder struct {
	data []byte
	i    int
	doc  string
	strs []string
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c if it is the next byte.
func (d *decoder) eat(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal consumes s if the input continues with it.
func (d *decoder) literal(s string) bool {
	if len(d.data)-d.i >= len(s) && string(d.data[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

func (d *decoder) digits() int {
	n := 0
	for d.i < len(d.data) && d.data[d.i] >= '0' && d.data[d.i] <= '9' {
		d.i++
		n++
	}
	return n
}

// number scans a number literal off the JSON grammar.
func (d *decoder) number() ([]byte, bool) {
	start := d.i
	d.eat('-')
	if !d.eat('0') && d.digits() == 0 {
		return nil, false
	}
	if d.eat('.') && d.digits() == 0 {
		return nil, false
	}
	if d.eat('e') || d.eat('E') {
		if !d.eat('+') {
			d.eat('-')
		}
		if d.digits() == 0 {
			return nil, false
		}
	}
	return d.data[start:d.i], true
}

// str scans a string and returns the bounds of its contents.
func (d *decoder) str() (int, int, bool) {
	if !d.eat('"') {
		return 0, 0, false
	}
	start := d.i
	end := bytes.IndexByte(d.data[start:], '"')
	if end < 0 {
		return 0, 0, false
	}
	end += start
	var high byte // OR of every byte: non-ASCII if it has the top bit
	for _, c := range d.data[start:end] {
		if c < ' ' || c == '\\' {
			return 0, 0, false
		}
		high |= c
	}
	if high >= utf8.RuneSelf && !utf8.Valid(d.data[start:end]) {
		return 0, 0, false
	}
	d.i = end + 1
	return start, end, true
}

func (d *decoder) text(i, j int) string {
	if i == j {
		return ""
	}
	if d.doc == "" {
		d.doc = string(d.data)
	}
	return d.doc[i:j]
}

func (d *decoder) value(p *fieldPlan, v reflect.Value) bool {
	d.space()
	switch k := p.kind; {
	case k == reflect.Struct:
		return d.object(p, v)
	case k == reflect.Slice:
		return d.stringArray(v)
	case k == reflect.String:
		i, j, ok := d.str()
		if ok {
			v.SetString(d.text(i, j))
		}
		return ok
	case k == reflect.Bool:
		b := d.literal("true")
		if !b && !d.literal("false") {
			return false
		}
		v.SetBool(b)
		return true
	}
	lit, ok := d.number()
	if !ok {
		return false
	}
	var err error
	switch k := p.kind; {
	case k == reflect.Float32, k == reflect.Float64:
		var f float64
		f, err = strconv.ParseFloat(string(lit), p.bits)
		v.SetFloat(f)
	case k >= reflect.Int && k <= reflect.Int64:
		var n int64
		n, err = strconv.ParseInt(string(lit), 10, p.bits)
		v.SetInt(n)
	default:
		var n uint64
		n, err = strconv.ParseUint(string(lit), 10, p.bits)
		v.SetUint(n)
	}
	return err == nil
}

func (d *decoder) object(p *fieldPlan, v reflect.Value) bool {
	if !d.eat('{') {
		return false
	}
	if d.space(); d.eat('}') {
		return true
	}
	next := 0 // json.Marshal writes the fields in order: expect this one
	for {
		d.space()
		at := next
		if next == len(p.fields) || !d.literal(p.fields[next].key) {
			i, j, ok := d.str()
			if d.space(); !ok || !d.eat(':') {
				return false
			}
			var folded bool
			if at, folded = p.field(string(d.data[i:j])); folded {
				return false
			}
		}
		var ok bool
		if at >= 0 {
			next = at + 1
			ok = d.value(p.fields[at].plan, v.Field(p.fields[at].index))
		} else {
			ok = d.scalar()
		}
		if d.space(); !ok {
			return false
		}
		if d.eat('}') {
			return true
		}
		if !d.eat(',') {
			return false
		}
	}
}

// scalar skips the value of an unknown key.
func (d *decoder) scalar() bool {
	d.space()
	if d.i == len(d.data) {
		return false
	}
	switch d.data[d.i] {
	case '"':
		_, _, ok := d.str()
		return ok
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	}
	_, ok := d.number()
	return ok
}

// stringArray decodes an array of strings into the slice v, reusing its
// array as encoding/json does when a key repeats. A new array is built
// in d.strs while the room lasts, and its capacity is clipped to its
// length, so an append to the decoded slice reallocates instead of
// writing into the room of the next array; an array that outgrows the
// room moves to the heap.
func (d *decoder) stringArray(v reflect.Value) bool {
	if !d.eat('[') {
		return false
	}
	// A slice of a named string type has the layout of []string.
	dst := (*[]string)(v.Addr().UnsafePointer())
	if d.space(); d.eat(']') {
		*dst = []string{}
		return true
	}
	a, room := (*dst)[:0], d.strs
	if cap(a) == 0 {
		a = room[:0]
	}
	for {
		d.space()
		i, j, ok := d.str()
		if !ok {
			return false
		}
		a = append(a, d.text(i, j))
		if d.space(); d.eat(']') {
			break
		}
		if !d.eat(',') {
			return false
		}
	}
	if len(room) > 0 && unsafe.SliceData(a) == unsafe.SliceData(room) {
		a, d.strs = a[:len(a):len(a)], room[len(a):]
	}
	*dst = a
	return true
}

// encode appends v as json.Marshal writes it, or reports false where
// the plan does not write it byte for byte: a string that needs an
// escape, or a NaN or Inf (which Marshal refuses).
func (p *fieldPlan) encode(b []byte, v reflect.Value) ([]byte, bool) {
	switch k := p.kind; {
	case k == reflect.Struct:
		b = append(b, '{')
		first := true
		for i := range p.fields {
			f := &p.fields[i]
			fv := v.Field(f.index)
			if f.omitEmpty && empty(fv) {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			var ok bool
			if b, ok = f.plan.encode(append(b, f.key...), fv); !ok {
				return b, false
			}
		}
		return append(b, '}'), true
	case k == reflect.Slice:
		if v.IsNil() {
			return append(b, "null"...), true
		}
		b = append(b, '[')
		for i := range v.Len() {
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			if b, ok = appendString(b, v.Index(i).String()); !ok {
				return b, false
			}
		}
		return append(b, ']'), true
	case k == reflect.String:
		return appendString(b, v.String())
	case k == reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), true
	case k == reflect.Float32, k == reflect.Float64:
		return appendFloat(b, v.Float(), p.bits)
	case k >= reflect.Int && k <= reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), true
	}
	return strconv.AppendUint(b, v.Uint(), 10), true
}

// empty is encoding/json's omitempty test for the kinds a plan holds; a
// struct is never empty, and -0 is.
func empty(v reflect.Value) bool {
	switch k := v.Kind(); {
	case k == reflect.Bool:
		return !v.Bool()
	case k == reflect.String, k == reflect.Slice:
		return v.Len() == 0
	case k == reflect.Float32, k == reflect.Float64:
		return v.Float() == 0
	case k >= reflect.Int && k <= reflect.Int64:
		return v.Int() == 0
	case k >= reflect.Uint && k <= reflect.Uintptr:
		return v.Uint() == 0
	}
	return false
}

// appendString quotes s when it is printable ASCII that encoding/json
// writes unescaped; anything else declines.
func appendString(b []byte, s string) ([]byte, bool) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return b, false
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"'), true
}

// appendFloat is encoding/json's float format: the shortest decimal at
// the float's own bit size, in exponent form outside [1e-6, 1e21), with
// a one-digit negative exponent unpadded (e-7, not e-07).
func appendFloat(b []byte, f float64, bits int) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}
