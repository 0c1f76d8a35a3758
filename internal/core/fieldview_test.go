package core

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/netip"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/query"
	"muppet/internal/slate"
)

// View equivalence: for every path, reading a typed slate as the object
// it is (fieldPlan) and reading it through its JSON encoding agree on
// whether the field is present, on its value bit for bit, and on
// whether the slate decodes at all — and so the query executor gives
// byte-identical answers through either view.

type viewDeep struct {
	Flag bool  `json:"flag"`
	U8   uint8 // no tag: the Go name is the JSON name
}

type viewInner struct {
	Zone string   `json:"zone"`
	Lat  float32  `json:"lat"`
	Deep viewDeep `json:"deep"`
}

// viewSlate covers every scalar kind the plan answers, nested structs,
// a named integer type without a marshaler, and fields called "key"
// and "value" (which the query layer resolves before the slate).
type viewSlate struct {
	B     bool          `json:"b"`
	I     int           `json:"i"`
	I8    int8          `json:"i8"`
	I16   int16         `json:"i16"`
	I32   int32         `json:"i32"`
	I64   int64         `json:"i64"`
	U     uint          `json:"u"`
	U8    uint8         `json:"u8"`
	U16   uint16        `json:"u16"`
	U32   uint32        `json:"u32"`
	U64   uint64        `json:"u64"`
	UP    uintptr       `json:"up"`
	F32   float32       `json:"f32"`
	F64   float64       `json:"f64"`
	S     string        `json:"s"`
	Dur   time.Duration `json:"dur"`
	Key   string        `json:"key"`
	Value float64       `json:"value"`
	Plain int
	In    viewInner `json:"in"`
}

// viewPaths starts with one path of each kind of answer (the fuzz
// target runs only those through the executor).
var viewPaths = []string{
	"s", "f32", "f64", "u64", "b", "in.zone", "in", "", "nope",
	"i", "i8", "i16", "i32", "i64", "u", "u8", "u16", "u32", "up", "dur", "key", "value", "Plain", "plain",
	"in.lat", "in.deep", "in.deep.flag", "in.deep.U8", "in.deep.u8", "in.zone.x", "s.x", "in.nope", "in..zone", ".",
}

func codecOf[S any]() SlateCodec {
	return Update[S]("U", func(Emitter, event.Event, *S) {}).(DecodedUpdater).SlateCodec()
}

// jsonOnly hides a codec's FieldReader, forcing the JSON view.
type jsonOnly struct{ slate.Codec }

// jsonFieldOf is the JSON view as the executor defined it before the
// typed view existed, kept here as the oracle.
func jsonFieldOf(v any, field string) (any, bool) {
	if field == "" {
		return v, true
	}
	m, ok := v.(map[string]any)
	if !ok {
		return v, true
	}
	cur := any(m)
	for _, part := range strings.Split(field, ".") {
		mm, ok := cur.(map[string]any)
		if !ok {
			return nil, false
		}
		if cur, ok = mm[part]; !ok {
			return nil, false
		}
	}
	return cur, true
}

// checkViews compares the two views of one decoded object of codec's
// slate type: path by path over paths, and through the executor over
// its first nExec paths.
func checkViews(t *testing.T, codec SlateCodec, obj any, paths []string, nExec int) {
	t.Helper()
	fc := codec.(slate.FieldCodec)
	enc, err := json.Marshal(obj)
	read, ok := fc.FieldReader(nil)
	if !ok {
		t.Fatalf("%T: the codec declined an empty field set", obj)
	}
	if encodes := read(obj, nil); encodes != (err == nil) {
		t.Fatalf("%+v: typed view says encodes=%v, json.Marshal says %v", obj, encodes, err)
	}
	if err != nil {
		return
	}
	var tree any
	if err := json.Unmarshal(enc, &tree); err != nil {
		t.Fatal(err)
	}
	for _, path := range paths {
		want, present := jsonFieldOf(tree, path)
		read, ok := fc.FieldReader([]string{path})
		if !ok {
			if _, composite := want.(map[string]any); !composite {
				t.Errorf("path %q: declined, but its JSON view is the scalar %v", path, want)
			}
			continue
		}
		got := make([]slate.Scalar, 1)
		if !read(obj, got) {
			t.Fatalf("path %q: reader refused an object that encodes", path)
		}
		same := false
		switch w := want.(type) {
		case nil:
			same = !present && got[0].Kind == slate.Absent
		case bool:
			same = got[0].Kind == slate.Bool && got[0].Str == strconv.FormatBool(w)
		case float64:
			same = got[0].Kind == slate.Number && math.Float64bits(got[0].Num) == math.Float64bits(w)
		case string:
			same = got[0].Kind == slate.String && got[0].Str == w
		}
		if !same {
			t.Errorf("path %q of %s: typed view %+v, JSON view (%v, present=%v)", path, enc, got[0], want, present)
		}
	}

	// Through the executor: a store row (Raw) and a cache row (Cached)
	// in the typed view against the same row in the JSON view.
	rows := []query.InputRow{{Key: "k<1>", Raw: enc}}
	for _, path := range paths[:nExec] {
		for _, spec := range []query.Spec{
			{Updater: "U"},
			{Updater: "U", Fields: []string{path, "key", "s"}},
			{Updater: "U", Where: []query.Pred{{Field: path, Op: ">=", Value: "1"}}, Fields: []string{path}},
			{Updater: "U", Where: []query.Pred{{Field: path, Op: "contains", Value: "a"}}, Agg: query.AggCount},
			{Updater: "U", Agg: query.AggSum, By: path},
			{Updater: "U", Agg: query.AggCount, GroupBy: path},
			{Updater: "U", Agg: query.AggTopK, By: path, K: 3},
			{Updater: "U", Agg: query.AggMax, By: path, GroupBy: "in.zone"},
		} {
			if spec.Normalize() != nil {
				continue // the path "" cannot be named in a predicate or as By
			}
			want, _ := json.Marshal(query.Execute(&spec, jsonOnly{codec}, rows))
			got, _ := json.Marshal(query.Execute(&spec, codec, rows))
			if string(got) != string(want) {
				t.Errorf("spec %+v over %s:\n typed view %s\n JSON view  %s", spec, enc, got, want)
			}
			x := query.Compile(&spec, codec, query.NoOverlay)
			if read, n := x.Reader(); read != nil {
				vals := make([]slate.Scalar, n)
				x.Cached(slate.CacheRow{Key: "k<1>", Vals: vals, Encodes: read(obj, vals), Size: len(enc)})
				if got, _ := json.Marshal(x.Result()); string(got) != string(want) {
					t.Errorf("spec %+v over %s:\n cached typed view %s\n JSON view        %s", spec, enc, got, want)
				}
			}
		}
	}
}

func viewValue(b bool, i int64, u uint64, f64 float64, f32 float32, s, zone string) *viewSlate {
	return &viewSlate{
		B: b, I: int(i), I8: int8(i), I16: int16(i), I32: int32(i), I64: i,
		U: uint(u), U8: uint8(u), U16: uint16(u), U32: uint32(u), U64: u, UP: uintptr(u),
		F32: f32, F64: f64, S: s, Dur: time.Duration(i), Key: zone, Value: f64 / 3, Plain: int(i >> 7),
		In: viewInner{Zone: zone, Lat: f32 * 1.1, Deep: viewDeep{Flag: !b, U8: uint8(i)}},
	}
}

// viewSeeds are the corner cases: integers past 2^53 (float64 rounds
// them), non-finite floats (the slate does not encode), float32 values
// whose float64 form differs from their decimal form, -0, invalid
// UTF-8, and every character class the JSON string encoder escapes.
var viewSeeds = []struct {
	b        bool
	i        int64
	u        uint64
	f64      float64
	f32      float32
	s, zone  string
	mustFail bool
}{
	{false, 0, 0, 0, 0, "", "", false},
	{true, 1<<53 + 1, 1<<64 - 1, 0.1, 0.1, "alice", "eu", false},
	{true, math.MinInt64, 1<<63 + 1025, -1e-7, 3.0e38, "a\xffb\xc0\xafc\xed\xa0\x80", "z\x80", false},
	{false, -42, 9007199254740993, 1e21, 1e-9, "<tag> & \"q\" \\ \n\r\t\b\f\x01\x7f \u2028\u2029 é 世界 \U0001F600", "a.b", false},
	{false, 7, 7, math.Copysign(0, -1), float32(math.Copysign(0, -1)), "1", "2", false},
	{false, 1, 1, math.NaN(), 1, "x", "y", true},
	{false, 1, 1, 1, float32(math.Inf(-1)), "x", "y", true},
	{false, 1, 1, math.MaxFloat64, math.MaxFloat32, "x", "y", true}, // In.Lat = f32*1.1 overflows to +Inf
}

func TestFieldViewMatchesJSONView(t *testing.T) {
	codec := codecOf[viewSlate]()
	for _, sd := range viewSeeds {
		obj := viewValue(sd.b, sd.i, sd.u, sd.f64, sd.f32, sd.s, sd.zone)
		if _, err := json.Marshal(obj); (err != nil) != sd.mustFail {
			t.Fatalf("seed %+v: marshal error = %v, want failure=%v", sd, err, sd.mustFail)
		}
		checkViews(t, codec, obj, viewPaths, len(viewPaths))
	}
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 100; n++ {
		f64 := math.Float64frombits(rng.Uint64()) // any bit pattern: NaNs, Infs, subnormals
		f32 := math.Float32frombits(rng.Uint32())
		s := make([]byte, rng.Intn(12))
		rng.Read(s)
		checkViews(t, codec, viewValue(rng.Intn(2) == 0, int64(rng.Uint64()), rng.Uint64(), f64, f32, string(s), "z"+string(s[:len(s)/2])), viewPaths, 9)
	}

	// Scalar slates: every field but "key" is the scalar itself.
	paths := []string{"", "count", "a.b", "value"}
	big, neg, f, str, yes := uint64(1<<63+1025), int64(-1<<53-1), 0.1, "a\xffb<", true
	checkViews(t, codecOf[uint64](), &big, paths, len(paths))
	checkViews(t, codecOf[int64](), &neg, paths, len(paths))
	checkViews(t, codecOf[float64](), &f, paths, len(paths))
	checkViews(t, codecOf[string](), &str, paths, len(paths))
	checkViews(t, codecOf[bool](), &yes, paths, len(paths))
	nan := math.NaN()
	checkViews(t, codecOf[float64](), &nan, paths, len(paths))
}

func FuzzFieldView(f *testing.F) {
	for _, sd := range viewSeeds {
		f.Add(sd.b, sd.i, sd.u, sd.f64, sd.f32, sd.s, sd.zone)
	}
	codec := codecOf[viewSlate]()
	f.Fuzz(func(t *testing.T, b bool, i int64, u uint64, f64 float64, f32 float32, s, zone string) {
		checkViews(t, codec, viewValue(b, i, u, f64, f32, s, zone), viewPaths, 9)
	})
}

type textPtr struct{ N int }

func (*textPtr) MarshalText() ([]byte, error) { return []byte("t"), nil }

type jsonVal struct{ N int }

func (jsonVal) MarshalJSON() ([]byte, error) { return []byte("1"), nil }

type embedded struct{ N int }

// Every shape whose JSON view the plan cannot reproduce without the
// encoder must decline, so queries over it take the JSON view.
func TestFieldPlanDeclines(t *testing.T) {
	intType := reflect.TypeFor[int]()
	if planFor(reflect.StructOf([]reflect.StructField{ // go vet rejects the literal
		{Name: "A", Type: intType, Tag: `json:"n"`}, {Name: "B", Type: intType, Tag: `json:"n"`},
	})) != nil {
		t.Error("two fields with one JSON name: planned, want declined")
	}
	for _, v := range []any{
		struct{ embedded }{},
		struct {
			N int
			u int
		}{},
		struct {
			N int `json:"n,omitempty"`
		}{},
		struct {
			N int `json:",string"`
		}{},
		struct {
			N int `json:"-"`
		}{},
		struct {
			N int `json:"a.b"`
		}{},
		struct{ P *int }{},
		struct{ M map[string]int }{},
		struct{ L []int }{},
		struct{ A [2]int }{},
		struct{ X any }{},
		struct{ C complex128 }{},
		struct{ T time.Time }{},
		struct{ A netip.Addr }{},
		struct{ T textPtr }{},
		struct{ J jsonVal }{},
		struct{ N json.Number }{},
		struct{ In struct{ P *int } }{},
		jsonVal{}, textPtr{}, json.Number(""), time.Time{},
		map[string]int{}, []int{}, new(int), [3]int{},
	} {
		if planFor(reflect.TypeOf(v)) != nil {
			t.Errorf("%T: planned, want declined", v)
		}
	}
	// A plannable type is declined all the same under any other codec:
	// its encoding is not the JSON the plan mirrors.
	raw := UpdateWith[[]byte]("U", RawCodec{}, func(Emitter, event.Event, *[]byte) {}).(DecodedUpdater).SlateCodec()
	if _, ok := raw.(slate.FieldCodec).FieldReader([]string{"n"}); ok {
		t.Error("RawCodec offered a typed view")
	}
	custom := UpdateWith[viewDeep]("U", upperCodec{}, func(Emitter, event.Event, *viewDeep) {}).(DecodedUpdater).SlateCodec()
	if _, ok := custom.(slate.FieldCodec).FieldReader([]string{"flag"}); ok {
		t.Error("a custom codec offered a typed view")
	}
	if _, ok := codecOf[viewDeep]().(slate.FieldCodec).FieldReader([]string{"flag", "U8", "nope"}); !ok {
		t.Error("JSONCodec over a flat struct declined")
	}
}

// upperCodec is a custom codec whose encoding only looks like JSON.
type upperCodec struct{ JSONCodec[viewDeep] }

func (c upperCodec) AppendEncode(dst []byte, s *viewDeep) ([]byte, error) {
	b, err := c.JSONCodec.AppendEncode(dst, s)
	return []byte(strings.ToUpper(string(b))), err
}
