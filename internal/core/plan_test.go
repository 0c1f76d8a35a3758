package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"muppet/internal/event"
	"muppet/internal/workload"
)

// The codec plan against its oracle, encoding/json: a document decodes
// to the same value with the same error, and a value encodes to the
// same bytes with the same error, whether the plan did the work or
// declined it.

type codecInner struct {
	Zone string  `json:"zone"`
	Lat  float32 `json:"lat"`
	N    int16
}

// codecKinds holds every kind the plan accepts, each with and without
// omitempty where the option changes the output.
type codecKinds struct {
	B    bool       `json:"b"`
	BO   bool       `json:"bo,omitempty"`
	I    int        `json:"i"`
	I8   int8       `json:"i8"`
	I16  int16      `json:"i16,omitempty"`
	I32  int32      // no tag: the Go name is the JSON name
	I64  int64      `json:"i64,omitempty"`
	U    uint       `json:"u"`
	U8   uint8      `json:"u8,omitempty"`
	U16  uint16     `json:"u16"`
	U32  uint32     `json:"u32"`
	U64  uint64     `json:"u64,omitempty"`
	UP   uintptr    `json:"up"`
	F32  float32    `json:"f32"`
	F32O float32    `json:"f32o,omitempty"`
	F64  float64    `json:"f64"`
	F64O float64    `json:"f64o,omitempty"`
	S    string     `json:"s"`
	SO   string     `json:"so,omitempty"`
	L    []string   `json:"l"`
	LO   []string   `json:"lo,omitempty"`
	In   codecInner `json:"in"`
	InO  codecInner `json:"ino,omitempty"`
}

// repSlate and repDelta have the shapes of Example 3's slate and delta
// payload (muppetapps.RepSlate, repDelta).
type repSlate struct {
	Score  float64 `json:"score"`
	Tweets int     `json:"tweets"`
}

type repDelta struct {
	From  string  `json:"from"`
	Delta float64 `json:"delta"`
}

// planFor is t's plan as the query reader takes it: nil unless the
// plan answers field reads.
func planFor(t reflect.Type) *fieldPlan {
	if p := planOf(t); p != nil && p.reads {
		return p
	}
	return nil
}

func kindsOf(s string, i int64, u uint64, f64 float64, f32 float32, b bool) codecKinds {
	v := codecKinds{
		B: b, BO: !b, I: int(i), I8: int8(i), I16: int16(i >> 8), I32: int32(i), I64: i >> 1,
		U: uint(u), U8: uint8(u), U16: uint16(u), U32: uint32(u >> 3), U64: u >> 5, UP: uintptr(u),
		F32: f32, F32O: f32 / 3, F64: f64, F64O: -f64, S: s, SO: strings.ToUpper(s),
		In: codecInner{Zone: s, Lat: f32 * 2, N: int16(i)},
	}
	if b {
		v.L, v.LO = []string{s, "x"}, []string{}
		v.InO.Zone = "z"
	}
	return v
}

// diffDecode decodes doc into a T through JSONCodec, through Payload
// under a foreign emitter (a block of its own), through Payload's decode
// into a block carved from a chunk, and through json.Unmarshal; it then
// re-encodes encoding/json's value both ways.
func diffDecode[T any](t *testing.T, doc []byte) {
	t.Helper()
	want := new(T)
	werr := json.Unmarshal(doc, want)
	var chunks PayloadChunks
	for _, dec := range []struct {
		name string
		fn   func([]byte) (*T, error)
	}{
		{"codec", JSONCodec[T]{}.Decode},
		{"payload", func(b []byte) (*T, error) { return Payload[T](&captureEmitter{}, event.Event{Value: b}) }},
		{"carved", func(b []byte) (*T, error) { return decodeJSON[T](planOf(reflect.TypeFor[T]()), b, &chunks) }},
	} {
		got, gerr := dec.fn(doc)
		if reflect.TypeOf(gerr) != reflect.TypeOf(werr) || gerr != nil && gerr.Error() != werr.Error() {
			t.Fatalf("%T from %q: %s error %v, encoding/json error %v", *want, doc, dec.name, gerr, werr)
		}
		if werr != nil {
			return
		}
		// DeepEqual tells a nil slice from an empty one; -0 from 0 shows
		// in the encodings.
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if !reflect.DeepEqual(got, want) || string(gb) != string(wb) {
			t.Fatalf("%T from %q: %s %#v, encoding/json %#v", *want, doc, dec.name, *got, *want)
		}
	}
	diffEncode(t, want)
}

// diffEncode encodes v through JSONCodec, after a prefix it must keep,
// and through json.Marshal.
func diffEncode[T any](t *testing.T, v *T) {
	t.Helper()
	got, gerr := JSONCodec[T]{}.AppendEncode([]byte("pre"), v)
	want, werr := json.Marshal(v)
	if reflect.TypeOf(gerr) != reflect.TypeOf(werr) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%#v: codec error %v, encoding/json error %v", *v, gerr, werr)
	}
	if werr == nil && string(got) != "pre"+string(want) {
		t.Fatalf("%#v:\n codec         %s\n encoding/json pre%s", *v, got, want)
	}
}

// diffAll runs one document through every type under test.
func diffAll(t *testing.T, doc []byte) {
	t.Helper()
	diffDecode[workload.Tweet](t, doc)
	diffDecode[workload.Checkin](t, doc)
	diffDecode[repSlate](t, doc)
	diffDecode[repDelta](t, doc)
	diffDecode[codecKinds](t, doc)
	diffDecode[int](t, doc)
	diffDecode[int8](t, doc)
	diffDecode[uint64](t, doc)
	diffDecode[float32](t, doc)
	diffDecode[float64](t, doc)
	diffDecode[string](t, doc)
	diffDecode[bool](t, doc)
	diffDecode[[]string](t, doc)
}

// codecEdgeDocs are the documents where a JSON decoder most easily
// parts from encoding/json.
var codecEdgeDocs = []string{
	// Keys: case-folded (ASCII, and U+017F, which folds to 's'),
	// repeated, repeated objects and arrays (which merge and reuse).
	`{"User":"a"}`, "{\"u\u017fer\":\"a\"}", `{"ID":1}`, `{"Score":1}`, `{"i32":1,"I32":2}`,
	`{"user":"a","user":"b"}`, `{"in":{"zone":"a"},"in":{"lat":1}}`, `{"l":["a","b"],"l":["c"]}`, `{"l":["a"],"l":[]}`,
	`{"user":"a","id":1.5}`, `{"user":"a","user":null}`, `{"urls":["a","b"],"urls":["\u0063"]}`,
	// null, non-integral and out-of-range numbers, negative zero.
	`null`, `{"id":null}`, `{"user":null}`, `{"l":null}`, `{"in":null}`, `{"minute":1.0}`, `{"i":1e2}`,
	`{"score":1e400}`, `{"f32":1e39}`, `{"f64":1e-400}`, `{"i8":128}`, `{"i8":-128}`, `{"u64":18446744073709551616}`,
	`{"minute":-0}`, `{"id":-0}`, `{"f64":-0}`, `{"f64":-0.0}`, `-0`, `1e400`, `-0.0e+0`,
	// Strings: escapes, characters encoding/json escapes, invalid UTF-8.
	`{"user":"\u0041"}`, `{"user":"a\"b"}`, `{"user":"<&>"}`, "{\"user\":\"\u2028\"}", "{\"user\":\"\xff\"}",
	"{\"user\":\"\xed\xa0\x80\"}", "{\"user\":\"a\tb\"}", "{\"user\":\"\x7f é 世界\"}", `"\ud800"`,
	// Trailing bytes and syntax errors.
	`{"id":1}x`, `{"id":1} `, " \t\n{\"id\":1}\r\n", `{"id":1}{}`, `{"id":1`, `{"id":01}`, `{"id":1.}`,
	`{"id":.5}`, `{"id":+1}`, `{"id":1e}`, `{"id":1,}`, `{,}`, `{"id" 1}`, `{"id":1 "user":"a"}`, ``, ` `,
	// Unknown keys.
	`{"x":{"a":1}}`, `{"x":[1]}`, `{"x":"y","id":2}`, `{"x":true,"y":false}`, `{"x":null}`, `{"x":-1.5e3}`, `{"x":"\n"}`,
	// Arrays and scalars.
	`[]`, `["a","b"]`, `[ "a" , "b" ]`, `[1]`, `["a",]`, `""`, `"abc"`, `true`, `false`, `tru`, `0`, `1.5`, `-12`,
	`18446744073709551615`, `{}`, `{ }`, `{"urls":[]}`, `{"urls":[ ]}`,
	// Floats at encoding/json's format cut-offs.
	`{"f64":1e-6}`, `{"f64":1e21}`, `{"f64":9.999999999999999e20}`, `{"f64":1e-7}`, `{"f32":1e-6}`, `{"f32":1e21}`,
	`{"f32":3.4028235e38}`, `{"f64":5e-324}`,
}

// codecEdgeFloats and codecEdgeStrings seed the encode half.
var (
	codecEdgeFloats  = []float64{1e-6, 1e21, 1e-7, 9.999999e20, 1e20, 0.1, math.Copysign(0, -1), math.MaxFloat64, 5e-324, math.NaN(), math.Inf(1), math.Inf(-1)}
	codecEdgeStrings = []string{"plain text", "<&>", "\u2028", "\xff", `a"b`, `a\b`, "\x7f", "tab\t", "é", ""}
)

func FuzzJSONCodec(f *testing.F) {
	g := workload.New(workload.Config{Seed: 1, Users: 100, URLFraction: 0.5})
	for _, ev := range g.Tweets("S", 8) {
		f.Add(ev.Value, "user00001", int64(ev.Seq), ev.Seq, 0.5, float32(0.5), true)
	}
	for _, ev := range g.Checkins("S", 2) {
		f.Add(ev.Value, "Sam's Club", int64(-1), uint64(0), 1.0, float32(1), false)
	}
	full, _ := json.Marshal(kindsOf("s", -7, 1<<63, 2.5, 0.25, true))
	f.Add(full, "", int64(0), uint64(0), 0.0, float32(0), false)
	for _, doc := range codecEdgeDocs {
		f.Add([]byte(doc), "s", int64(1), uint64(1), 1.5, float32(1.5), false)
	}
	for _, x := range codecEdgeFloats {
		f.Add([]byte(`{}`), "s", int64(math.MinInt64), uint64(math.MaxUint64), x, float32(x), true)
	}
	for _, s := range codecEdgeStrings {
		f.Add([]byte(`{}`), s, int64(0), uint64(0), 0.0, float32(0), true)
	}
	// A tweet whose last field the plan declines (an escape): its block
	// is partly written, and the fallback must start from a zero value.
	for _, ev := range g.Tweets("S", 2) {
		doc := append(ev.Value[:len(ev.Value)-1:len(ev.Value)-1], `,"topic":"\u0041"}`...)
		f.Add(doc, "", int64(0), uint64(0), 0.0, float32(0), false)
	}
	for _, n := range blockLadder(f) {
		f.Add(sizedDoc(n), "", int64(0), uint64(0), 0.0, float32(0), false)
		f.Add(sizedDoc(n+1), "", int64(0), uint64(0), 0.0, float32(0), false)
	}
	f.Fuzz(func(t *testing.T, doc []byte, s string, i int64, u uint64, f64 float64, f32 float32, b bool) {
		diffAll(t, doc)
		v := kindsOf(s, i, u, f64, f32, b)
		diffEncode(t, &v)
		tw := workload.Tweet{ID: u, User: s, Text: s + " ", RetweetOf: s, URLs: []string{s}, Minute: int(i)}
		diffEncode(t, &tw)
		rs := repSlate{Score: f64, Tweets: int(i)}
		diffEncode(t, &rs)
		diffEncode(t, &f64)
		diffEncode(t, &f32)
		diffEncode(t, &s)
		diffEncode(t, &u)
	})
}

type jsonIn struct{ N int }

func (*jsonIn) UnmarshalJSON([]byte) error { return nil }

type textIn struct{ N int }

func (*textIn) UnmarshalText([]byte) error { return nil }

// declinedType checks that T has no plan and that JSONCodec over it
// still equals encoding/json on doc and on v.
func declinedType[T any](doc string, v T) func(*testing.T) {
	return func(t *testing.T) {
		if planOf(reflect.TypeFor[T]()) != nil {
			t.Fatalf("%T: planned, want declined", v)
		}
		diffDecode[T](t, []byte(doc))
		diffEncode(t, &v)
	}
}

// declinedDoc checks that T's plan declines doc and that JSONCodec
// still equals encoding/json on it.
func declinedDoc[T any](doc string) func(*testing.T) {
	return func(t *testing.T) {
		p := planOf(reflect.TypeFor[T]())
		if p == nil {
			t.Fatalf("%T: no plan", *new(T))
		}
		if p.decode(decoder{data: []byte(doc)}, reflect.ValueOf(new(T)).Elem()) {
			t.Fatalf("%T: the plan accepted %q", *new(T), doc)
		}
		diffDecode[T](t, []byte(doc))
	}
}

// One case per reason the plan declines a type or a document.
func TestJSONPlanDeclines(t *testing.T) {
	one := 1
	for _, c := range []struct {
		reason string
		run    func(*testing.T)
	}{
		{"json.Marshaler", declinedType(`{"J":{"N":1}}`, struct{ J jsonVal }{})},
		{"json.Unmarshaler", declinedType(`{"J":{"N":1}}`, struct{ J jsonIn }{jsonIn{2}})},
		{"encoding.TextMarshaler", declinedType(`{"T":"t"}`, struct{ T textPtr }{})},
		{"encoding.TextUnmarshaler", declinedType(`{"T":"t"}`, struct{ T textIn }{textIn{2}})},
		{"json.Number", declinedType(`{"N":12.50}`, struct{ N json.Number }{"1e3"})},
		{"pointer", declinedType(`{"P":3}`, struct{ P *int }{&one})},
		{"map", declinedType(`{"M":{"a":1}}`, struct{ M map[string]int }{map[string]int{"b": 2}})},
		{"interface", declinedType(`{"X":[1,"a"]}`, struct{ X any }{[]int{1}})},
		{"array", declinedType(`{"A":[1,2,3]}`, struct{ A [2]int }{[2]int{4, 5}})},
		{"slice of non-strings", declinedType(`{"L":[1]}`, struct{ L []int }{[]int{1}})},
		{"tag option string", declinedType(`{"n":"5"}`, struct {
			N int `json:"n,string"`
		}{6})},
		{"tag option omitzero", declinedType(`{"n":0}`, struct {
			N int `json:"n,omitzero"`
		}{})},
		{`tag "-"`, declinedType(`{"N":1,"-":2,"M":3}`, struct {
			N int `json:"-"`
			M int
		}{1, 2})},
		{"names differing only in case", declinedType(`{"n":1,"N":2}`, struct {
			A int `json:"n"`
			B int `json:"N"`
		}{1, 2})},
		{"embedded field", declinedType(`{"N":1}`, struct{ embedded }{embedded{2}})},
		{"unexported field", declinedType(`{"N":1,"u":2}`, struct {
			N int
			u int
		}{1, 2})},
		{"non-ASCII name", declinedType(`{"Ñ":1}`, struct{ Ñ int }{2})},

		{"escape", declinedDoc[workload.Tweet](`{"user":"a\"b"}`)},
		{"escape in a key", declinedDoc[workload.Tweet](`{"us\u0065r":"a"}`)},
		{"control byte", declinedDoc[workload.Tweet]("{\"user\":\"a\tb\"}")},
		{"invalid UTF-8", declinedDoc[workload.Tweet]("{\"user\":\"\xff\"}")},
		{"null", declinedDoc[workload.Tweet](`{"user":null}`)},
		{"null document", declinedDoc[workload.Tweet](`null`)},
		{"null in an array", declinedDoc[workload.Tweet](`{"urls":["a",null]}`)},
		{"key folded in ASCII", declinedDoc[workload.Tweet](`{"User":"a"}`)},
		{"key folded in Unicode", declinedDoc[workload.Tweet]("{\"u\u017fer\":\"a\"}")},
		{"unknown key holding an object", declinedDoc[workload.Tweet](`{"x":{},"id":1}`)},
		{"unknown key holding an array", declinedDoc[workload.Tweet](`{"x":[],"id":1}`)},
		{"integer overflow", declinedDoc[codecKinds](`{"i8":128}`)},
		{"unsigned negative", declinedDoc[workload.Tweet](`{"id":-1}`)},
		{"float overflow", declinedDoc[repSlate](`{"score":1e400}`)},
		{"float32 overflow", declinedDoc[codecKinds](`{"f32":1e39}`)},
		{"fraction into an integer", declinedDoc[workload.Tweet](`{"minute":1.0}`)},
		{"wrong type", declinedDoc[workload.Tweet](`{"user":1}`)},
		{"trailing bytes", declinedDoc[workload.Tweet](`{"id":1}x`)},
		{"syntax error", declinedDoc[workload.Tweet](`{"id":01}`)},
		{"truncated", declinedDoc[workload.Tweet](`{"id":1`)},
		{"empty", declinedDoc[workload.Tweet](``)},

		// Declines after fields were written: the result is still
		// encoding/json's, with nothing left over from the plan.
		{"decline after a field", declinedDoc[workload.Tweet](`{"user":"a","id":1.5}`)},
		{"decline inside a repeated array", declinedDoc[workload.Tweet](`{"urls":["a","b"],"urls":["\u0063"]}`)},
		{"decline after a repeated key", declinedDoc[workload.Tweet](`{"user":"a","user":null}`)},
		{"decline inside a nested object", declinedDoc[codecKinds](`{"s":"a","in":{"zone":"b","lat":1e39}}`)},
	} {
		t.Run(c.reason, c.run)
	}
	// A repeated key is not a decline: the last value wins, as in
	// encoding/json.
	for _, doc := range []string{`{"user":"a","user":"b"}`, `{"in":{"zone":"a"},"in":{"lat":1}}`} {
		diffAll(t, []byte(doc))
	}
}

func TestJSONCodecMatchesEncodingJSON(t *testing.T) {
	g := workload.New(workload.Config{Seed: 7, Users: 500, URLFraction: 0.5})
	for _, ev := range append(g.Tweets("S", 200), g.Checkins("S", 50)...) {
		diffAll(t, ev.Value)
	}
	for _, doc := range codecEdgeDocs {
		diffAll(t, []byte(doc))
	}
	for _, x := range codecEdgeFloats {
		v := kindsOf("s", 3, 4, x, float32(x), true)
		diffEncode(t, &v)
		diffEncode(t, &x)
	}
	for _, s := range codecEdgeStrings {
		v := kindsOf(s, 0, 0, 0, 0, false)
		diffEncode(t, &v)
		diffEncode(t, &codecInner{Zone: s})
	}
	var nilKinds *codecKinds
	diffEncode(t, &nilKinds)
}

func TestJSONCodecAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// A tweet: one block holds the struct, the document its strings
	// slice and the backing of a URLs array of up to blockStrings.
	g := workload.New(workload.Config{Seed: 3, Users: 1000, URLFraction: 0.5})
	for _, ev := range g.Tweets("S", 40) {
		if n := testing.AllocsPerRun(20, func() { JSONCodec[workload.Tweet]{}.Decode(ev.Value) }); n != 1 {
			t.Fatalf("decoding %s: %.1f allocations, budget 1", ev.Value, n)
		}
	}
	full := []byte(`{"urls":["a"` + strings.Repeat(`,"a"`, blockStrings-1) + `]}`)
	if n := testing.AllocsPerRun(20, func() { JSONCodec[workload.Tweet]{}.Decode(full) }); n != 1 {
		t.Errorf("decoding %s: %.1f allocations, budget 1", full, n)
	}
	d := []byte(`{"from":"user00042","delta":0.1234}`)
	if n := testing.AllocsPerRun(100, func() { JSONCodec[repDelta]{}.Decode(d) }); n != 1 {
		t.Errorf("decoding a delta: %.1f allocations, budget 1", n)
	}
	// Past the block: the struct, the document copy and the URLs array.
	big := sizedDoc(maxBlockDoc + 1)
	if n := testing.AllocsPerRun(20, func() { JSONCodec[workload.Tweet]{}.Decode(big) }); n > 3 {
		t.Errorf("decoding a %d-byte tweet: %.1f allocations, budget 3", len(big), n)
	}
	buf := make([]byte, 0, 64)
	rs := &repSlate{Score: 12.375, Tweets: 40}
	if n := testing.AllocsPerRun(100, func() { buf, _ = JSONCodec[repSlate]{}.AppendEncode(buf[:0], rs) }); n != 0 {
		t.Errorf("encoding a slate into a reused buffer: %.1f allocations, budget 0", n)
	}
	// A value built on the stack stays there: the codec keeps no
	// reference to it, so a publish's delta costs nothing.
	if n := testing.AllocsPerRun(100, func() {
		d := repDelta{From: "user00042", Delta: 0.1234}
		buf, _ = JSONCodec[repDelta]{}.AppendEncode(buf[:0], &d)
	}); n != 0 {
		t.Errorf("encoding a stack value into a roomy buffer: %.1f allocations, budget 0", n)
	}
	// Into nil, as a flush encode: the result, once.
	if n := testing.AllocsPerRun(100, func() { JSONCodec[repSlate]{}.AppendEncode(nil, rs) }); n != 1 {
		t.Errorf("encoding a slate into nil: %.1f allocations, budget 1", n)
	}
}

// ptrMarshal has a pointer-receiver MarshalJSON, which json.Marshal
// calls only on an addressable value; a negative N is its error.
type ptrMarshal struct{ N int }

func (p *ptrMarshal) MarshalJSON() ([]byte, error) {
	if p.N < 0 {
		return nil, errors.New("negative")
	}
	return fmt.Appendf(nil, `{"n":%d}`, p.N), nil
}

// The codec hands encoding/json a copy of what the plan declines, not
// the caller's value: the bytes and the error are still json.Marshal's
// of the value itself. A pointer-receiver MarshalJSON runs and its
// error comes back, a NaN is refused, and a nil *S is null.
func TestJSONCodecDeclinedEncodeExact(t *testing.T) {
	diffEncode(t, &ptrMarshal{N: 3})
	diffEncode(t, &ptrMarshal{N: -1})
	diffEncode(t, &struct{ P ptrMarshal }{ptrMarshal{N: 4}})
	nan := math.NaN()
	diffEncode(t, &nan)
	diffEncode(t, &repSlate{Score: nan, Tweets: 2})
	diffEncodeNil[repSlate](t)
	diffEncodeNil[ptrMarshal](t)
}

// diffEncodeNil encodes a nil *T through JSONCodec and json.Marshal.
func diffEncodeNil[T any](t *testing.T) {
	t.Helper()
	got, gerr := JSONCodec[T]{}.AppendEncode([]byte("pre"), nil)
	want, werr := json.Marshal((*T)(nil))
	if gerr != nil || werr != nil || string(got) != "pre"+string(want) {
		t.Fatalf("nil *%T: codec %q, %v; encoding/json %q, %v", *new(T), got, gerr, want, werr)
	}
}

// A flush encodes a typed slate the cache already holds on the heap.
// Where the plan declines the type or the value, encoding/json gets that
// object itself, not a copy: the encode allocates what json.Marshal of
// it does, no more.
func TestDeclinedSlateEncodeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	flushEncodeAllocs(t, struct{ M map[string]int }{map[string]int{"a": 1}})
	flushEncodeAllocs(t, repDelta{From: "a<b", Delta: 0.5})
}

// flushEncodeAllocs compares a slate cache's encode of v, as the flush
// runs it, with json.Marshal's allocations.
func flushEncodeAllocs[S any](t *testing.T, v S) {
	t.Helper()
	codec := Update("U", func(Emitter, event.Event, *S) {}).(DecodedUpdater).SlateCodec()
	obj := codec.New()
	*obj.(*S) = v
	buf := make([]byte, 0, 512)
	got := testing.AllocsPerRun(100, func() { buf, _ = codec.AppendEncode(buf[:0], obj) })
	want := testing.AllocsPerRun(100, func() { json.Marshal(obj) })
	if got > want {
		t.Errorf("%T: the flush encode allocates %.1f, json.Marshal %.1f", v, got, want)
	}
}

// blockLadder is the document room of every step of newBlock's ladder.
func blockLadder(t testing.TB) []int {
	var sizes []int
	for n := 0; n < maxBlockDoc; {
		_, doc, _ := newBlock[workload.Tweet](n+1, nil)
		if len(doc) <= n {
			t.Fatalf("a %d-byte document got %d bytes of room", n+1, len(doc))
		}
		n = len(doc)
		sizes = append(sizes, n)
	}
	return sizes
}

// sizedDoc is a tweet document of exactly n bytes (at least 24).
func sizedDoc(n int) []byte {
	const head, tail = `{"urls":["a"],"text":"`, `"}`
	pad := strings.Repeat("muppet ", n/7+1)[:n-len(head)-len(tail)]
	return []byte(head + pad + tail)
}

// At each step of the block ladder, one byte past it, and one byte past
// the largest block, the codec still decodes what encoding/json does.
func TestJSONCodecBlockLadder(t *testing.T) {
	ladder := blockLadder(t)
	if last := ladder[len(ladder)-1]; last != maxBlockDoc {
		t.Fatalf("the ladder ends at %d, want %d", last, maxBlockDoc)
	}
	for _, room := range ladder {
		for _, n := range []int{room, room + 1} {
			doc := sizedDoc(n)
			diffAll(t, doc)
			diffAll(t, []byte(`[`+strings.Repeat(`"ab",`, (n-4)/5)+`"`+strings.Repeat("x", (n-4)%5)+`"]`))
			if !planOf(reflect.TypeFor[workload.Tweet]()).decode(decoder{data: doc}, reflect.ValueOf(new(workload.Tweet)).Elem()) {
				t.Fatalf("the plan declined a %d-byte tweet", n)
			}
		}
	}
}

// A decoded value shares nothing with the caller's bytes and stays
// whole through a collection: its strings are slices of the block's
// copy of the document, and an append to one decoded array does not
// write into another's.
func TestDecodedValueOutlivesItsDocument(t *testing.T) {
	for _, n := range append(blockLadder(t), maxBlockDoc+1) {
		src := sizedDoc(n)
		want := new(workload.Tweet)
		json.Unmarshal(src, want)
		got, err := JSONCodec[workload.Tweet]{}.Decode(src)
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			src[i] = 'x'
		}
		runtime.GC()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d bytes: after the source was overwritten and a GC: %+v, want %+v", n, got, want)
		}
	}
	src := []byte(`{"s":"abc","l":["a"],"lo":["c"],"in":{"zone":"z"}}`)
	v, err := JSONCodec[codecKinds]{}.Decode(src)
	if err != nil {
		t.Fatal(err)
	}
	clear(src)
	v.L = append(v.L, "appended")
	v.S = strings.Repeat("new", 3) // a heap string stored into the block
	runtime.GC()
	want := codecKinds{S: "newnewnew", L: []string{"a", "appended"}, LO: []string{"c"}, In: codecInner{Zone: "z"}}
	if !reflect.DeepEqual(*v, want) {
		t.Fatalf("after an append, a store and a GC: %+v, want %+v", *v, want)
	}
}
