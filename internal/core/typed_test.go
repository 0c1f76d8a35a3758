package core

import (
	"errors"
	"strings"
	"testing"

	"muppet/internal/event"
)

type testSlate struct {
	N    int      `json:"n"`
	Tags []string `json:"tags,omitempty"`
}

func TestTypedUpdaterCarriesCodecOnSpec(t *testing.T) {
	u := Update[testSlate]("U", func(Emitter, event.Event, *testSlate) {})
	app := NewApp("x").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	spec := app.Function("U")
	if spec == nil || spec.Codec == nil {
		t.Fatal("typed updater did not carry a codec onto its FunctionSpec")
	}
	if untyped := NewApp("y").Input("S1").
		AddUpdate(noopUpdate("U"), []string{"S1"}, nil, 0).Function("U"); untyped.Codec != nil {
		t.Fatal("classic updater must not carry a codec")
	}
}

func TestErasedCodecRoundTrip(t *testing.T) {
	u := Update[testSlate]("U", nil).(*typedUpdater[testSlate])
	c := u.SlateCodec()
	fresh := c.New()
	if s, ok := fresh.(*testSlate); !ok || s == nil || s.N != 0 {
		t.Fatalf("New = %#v", fresh)
	}
	v, err := c.Decode([]byte(`{"n":3,"tags":["a"]}`))
	if err != nil {
		t.Fatal(err)
	}
	s := v.(*testSlate)
	if s.N != 3 || len(s.Tags) != 1 {
		t.Fatalf("decoded %#v", s)
	}
	s.N++
	b, err := c.AppendEncode(nil, s)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `{"n":4,"tags":["a"]}` {
		t.Fatalf("encoded %q", b)
	}
	if _, err := c.Decode([]byte("not json")); err == nil {
		t.Fatal("decode of garbage succeeded")
	}
}

// TestTypedUpdaterByteFallbackMatchesDecodedPath runs the same typed
// function through both invocation surfaces — the byte-slate Update
// used by the Reference executor and the UpdateDecoded used by the
// engines — and asserts they produce the same slate bytes.
func TestTypedUpdaterByteFallbackMatchesDecodedPath(t *testing.T) {
	mk := func() Updater {
		return Update[testSlate]("U", func(emit Emitter, in event.Event, s *testSlate) {
			s.N++
			s.Tags = append(s.Tags, string(in.Value))
		})
	}
	ev := event.Event{Stream: "S1", TS: 1, Key: "k", Value: []byte("t")}

	// Byte path: a capture emitter records ReplaceSlate.
	var replaced []byte
	cap := &captureEmitter{onReplace: func(b []byte) { replaced = b }}
	bytesU := mk()
	bytesU.Update(cap, ev, nil)
	bytesU.Update(cap, ev, replaced)

	// Decoded path: mutate the object twice, encode once at the end.
	decU := mk().(DecodedUpdater)
	c := decU.SlateCodec()
	obj := c.New()
	decU.UpdateDecoded(cap, ev, obj)
	decU.UpdateDecoded(cap, ev, obj)
	encoded, err := c.AppendEncode(nil, obj)
	if err != nil {
		t.Fatal(err)
	}
	if string(encoded) != string(replaced) {
		t.Fatalf("decoded path %q != byte path %q", encoded, replaced)
	}
}

func TestTypedUpdaterByteFallbackTreatsCorruptSlateAsMissing(t *testing.T) {
	u := Update[testSlate]("U", func(emit Emitter, in event.Event, s *testSlate) { s.N++ })
	var replaced []byte
	u.Update(&captureEmitter{onReplace: func(b []byte) { replaced = b }},
		event.Event{}, []byte("corrupt"))
	if string(replaced) != `{"n":1}` {
		t.Fatalf("slate after corrupt input = %q", replaced)
	}
}

func TestRawCodec(t *testing.T) {
	var c RawCodec
	orig := []byte("state")
	p, err := c.Decode(orig)
	if err != nil {
		t.Fatal(err)
	}
	(*p)[0] = 'S' // mutating the object must not touch the stored bytes
	if string(orig) != "state" {
		t.Fatal("RawCodec.Decode aliased the input")
	}
	out, err := c.AppendEncode([]byte("pre:"), p)
	if err != nil || string(out) != "pre:State" {
		t.Fatalf("AppendEncode = %q, %v", out, err)
	}
}

// captureEmitter is a minimal Emitter for direct invocation tests.
type captureEmitter struct {
	onReplace func([]byte)
}

func (c *captureEmitter) Publish(stream, key string, value []byte) error { return nil }
func (c *captureEmitter) ReplaceSlate(value []byte) {
	if c.onReplace != nil {
		c.onReplace(append([]byte(nil), value...))
	}
}

func TestValidateReportsDuplicateFunctionName(t *testing.T) {
	app := NewApp("dup").
		Input("S1").
		AddUpdate(noopUpdate("U1"), []string{"S1"}, nil, 0).
		AddUpdate(noopUpdate("U1"), []string{"S1"}, nil, 0)
	err := app.Validate()
	if err == nil || !strings.Contains(err.Error(), "duplicate function name U1") {
		t.Fatalf("err = %v", err)
	}
	// The first registration survives; the duplicate did not overwrite.
	if app.Function("U1") == nil {
		t.Fatal("first registration lost")
	}
}

func TestValidateReportsDuplicateAcrossKinds(t *testing.T) {
	app := NewApp("dup").
		Input("S1").
		AddMap(noopMap("F"), []string{"S1"}, nil).
		AddUpdate(noopUpdate("F"), []string{"S1"}, nil, 0)
	if err := app.Validate(); err == nil || !strings.Contains(err.Error(), "duplicate function name F") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateReportsNilFunctions(t *testing.T) {
	app := NewApp("nils").
		Input("S1").
		AddMap(nil, []string{"S1"}, nil).
		AddUpdate(nil, []string{"S1"}, nil, 0).
		AddMap(MapFunc{FName: "M"}, []string{"S1"}, nil).
		AddUpdate(UpdateFunc{FName: "U"}, []string{"S1"}, nil, 0).
		AddUpdate(Update[int]("UT", nil), []string{"S1"}, nil, 0)
	err := app.Validate()
	if err == nil {
		t.Fatal("nil registrations validated")
	}
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err type %T, want *ValidationError", err)
	}
	for _, want := range []string{
		"AddMap called with a nil map function",
		"AddUpdate called with a nil update function",
		`map function "M" is nil`,
		`update function "U" is nil`,
		`update function "UT" is nil`,
	} {
		found := false
		for _, p := range ve.Problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("problems %q missing %q", ve.Problems, want)
		}
	}
}

func TestValidateCollectsEveryProblem(t *testing.T) {
	app := NewApp("multi").
		AddMap(noopMap("M1"), []string{"ghost"}, []string{"S1"}).
		AddMap(noopMap("M2"), nil, nil).
		Input("S1"). // declared after M1 already publishes into it
		Output("S99")
	err := app.Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v", err)
	}
	if len(ve.Problems) < 4 {
		t.Fatalf("want >= 4 problems, got %q", ve.Problems)
	}
	msg := err.Error()
	for _, want := range []string{"ghost", "external input stream S1", "subscribes to no streams", "S99"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q missing %q", msg, want)
		}
	}
}

func TestValidationErrorIsTypedFromEngineConstruction(t *testing.T) {
	// Validate returns the dedicated type, so NewEngine callers can
	// errors.As it out of the construction error.
	err := NewApp("x").Validate()
	var ve *ValidationError
	if !errors.As(err, &ve) || ve.App != "x" {
		t.Fatalf("err = %#v", err)
	}
}

// TestPayloadUnderForeignEmitter: an emitter that remembers nothing gets
// a fresh decode of the bytes on every call. An object riding the event
// is not trusted without the engine's emitter, which knows what bytes
// it came with.
func TestPayloadUnderForeignEmitter(t *testing.T) {
	in := event.Event{Value: []byte(`{"n":4}`), Decoded: &testSlate{N: 99}}
	em := &captureEmitter{}
	a, err := Payload[testSlate](em, in)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Payload[testSlate](em, in)
	if a.N != 4 || b.N != 4 || a == b {
		t.Fatalf("Payload = %+v (%p), %+v (%p): want two decodes of the bytes", a, a, b, b)
	}
	if _, err := Payload[testSlate](em, event.Event{Value: []byte(`{"n":`)}); err == nil {
		t.Fatal("Payload of malformed JSON returned no error")
	}
}
