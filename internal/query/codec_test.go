package query

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzQueryCodec: DecodeRequest and DecodeResponse take bytes off the
// cluster's query exchange. Arbitrary input never panics them, and what
// either accepts survives its encoder: a decoded request re-encodes and
// decodes to an equal Spec, a decoded response to an equal NodeResult.
func FuzzQueryCodec(f *testing.F) {
	for _, s := range []Spec{
		{Updater: "U1"},
		{Updater: "U1", Prefix: "a", Start: "a1", End: "b", Limit: 5,
			Where:  []Pred{{Field: "n", Op: ">=", Value: "3"}, {Field: "key", Op: "prefix", Value: "x"}},
			Fields: []string{"key", "n.m"}},
		{Updater: "U1", Agg: AggTopK, By: "n", GroupBy: "g", K: 3, Watch: true, EveryMS: 50},
		{Updater: "U1", Agg: AggSum, By: "n"},
	} {
		b, err := EncodeRequest(&s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, nr := range []NodeResult{
		{Rows: []Row{{Key: "a", Value: json.RawMessage(`{"n":1}`)}, {Key: "b"}},
			Stats: ExecStats{RowsScanned: 2, BytesScanned: 9, RowsReturned: 2}},
		{Groups: []Group{{Key: "g", Count: 3, Vals: 2, Sum: 1.5, Min: -2, Max: 1e300}},
			Stats: ExecStats{WireBytes: 7, FanoutMachines: 3, DecodeErrors: 1}},
	} {
		b, err := EncodeResponse(&nr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"updater":"U","where":[],"fields":[],"agg":"topk"}`))
	f.Add([]byte(`{"rows":[{"key":"a","value": [1, "<é>", null] }],"groups":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := DecodeRequest(data); err == nil {
			b, err := EncodeRequest(spec)
			if err != nil {
				t.Fatalf("decoded spec %+v does not encode: %v", spec, err)
			}
			again, err := DecodeRequest(b)
			if err != nil {
				t.Fatalf("re-encoded spec %s does not decode: %v", b, err)
			}
			if !sameSpec(spec, again) {
				t.Fatalf("round trip changed the spec: %+v, then %+v", spec, again)
			}
		}
		if nr, err := DecodeResponse(data); err == nil {
			b, err := EncodeResponse(nr)
			if err != nil {
				t.Fatalf("decoded result %+v does not encode: %v", nr, err)
			}
			again, err := DecodeResponse(b)
			if err != nil {
				t.Fatalf("re-encoded result %s does not decode: %v", b, err)
			}
			if !sameResult(nr, again) {
				t.Fatalf("round trip changed the result: %+v, then %+v", nr, again)
			}
		}
	})
}

// sameSpec compares two specs as the wire carries them: an empty list
// is no list (omitempty).
func sameSpec(a, b *Spec) bool {
	x, y := *a, *b
	for _, s := range []*Spec{&x, &y} {
		if len(s.Where) == 0 {
			s.Where = nil
		}
		if len(s.Fields) == 0 {
			s.Fields = nil
		}
	}
	return reflect.DeepEqual(x, y)
}

// sameResult compares two partial results as the wire carries them: a
// row's raw value by the JSON it holds, not by its layout or escaping.
func sameResult(a, b *NodeResult) bool {
	if len(a.Rows) != len(b.Rows) || len(a.Groups) != len(b.Groups) || a.Stats != b.Stats {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	for i := range a.Rows {
		if a.Rows[i].Key != b.Rows[i].Key || len(a.Rows[i].Value) == 0 != (len(b.Rows[i].Value) == 0) {
			return false
		}
		var x, y any
		if len(a.Rows[i].Value) > 0 {
			if json.Unmarshal(a.Rows[i].Value, &x) != nil || json.Unmarshal(b.Rows[i].Value, &y) != nil || !reflect.DeepEqual(x, y) {
				return false
			}
		}
	}
	return true
}
