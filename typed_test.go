package muppet_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"
	"time"

	"muppet"
)

// The typed-API equivalence suite: the same application written
// against the classic byte-slate API and against the typed API must
// produce identical slates and identical output streams under both
// engines — and the classic API itself must keep byte-for-byte
// semantics (slates at rest are exactly what ReplaceSlate stored,
// plain codec output, including non-JSON blobs).

// wordStats is the struct slate both variants maintain.
type wordStats struct {
	Count int    `json:"count"`
	Last  string `json:"last"`
}

// statsAppUntyped builds the test workflow on the classic API: M_split
// fans values out into words, U_stats unmarshals/marshals a JSON slate
// per event and reports every 3rd sighting on the output stream.
func statsAppUntyped() *muppet.App {
	return statsAppWith(muppet.UpdateFunc{FName: "U_stats", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		var s wordStats
		if sl != nil {
			json.Unmarshal(sl, &s)
		}
		s.Count++
		s.Last = string(in.Value)
		if s.Count%3 == 0 {
			emit.Publish("S_out", in.Key, []byte(strconv.Itoa(s.Count)))
		}
		b, _ := json.Marshal(s)
		emit.ReplaceSlate(b)
	}})
}

// statsAppTyped is the same workflow on the typed API: the slate is a
// live *wordStats mutated in place.
func statsAppTyped() *muppet.App {
	return statsAppWith(muppet.Update[wordStats]("U_stats", func(emit muppet.Emitter, in muppet.Event, s *wordStats) {
		s.Count++
		s.Last = string(in.Value)
		if s.Count%3 == 0 {
			emit.Publish("S_out", in.Key, []byte(strconv.Itoa(s.Count)))
		}
	}))
}

func statsAppWith(u muppet.Updater) *muppet.App {
	split := muppet.MapFunc{FName: "M_split", Fn: func(emit muppet.Emitter, in muppet.Event) {
		for _, w := range bytes.Fields(in.Value) {
			emit.Publish("S_words", string(w), w)
		}
	}}
	return muppet.NewApp("stats").
		Input("S1").
		Output("S_out").
		AddMap(split, []string{"S1"}, []string{"S_words"}).
		AddUpdate(u, []string{"S_words"}, []string{"S_out"}, 0)
}

func feedStats(t *testing.T, eng muppet.Engine) {
	t.Helper()
	lines := []string{
		"to be or not to be",
		"the be all and end all",
		"all is well that ends well",
		"to be is to do",
	}
	for i, l := range lines {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("l%d", i), Value: []byte(l)})
	}
	eng.Drain()
}

// runStats returns the app's slates and its S_out events tallied by key
// and value, ignoring ordering (the distributed engines interleave
// legally).
func runStats(t *testing.T, app *muppet.App, cfg muppet.Config) (map[string][]byte, map[string]int) {
	t.Helper()
	eng, err := muppet.NewEngine(app, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sub := eng.Subscribe("S_out", 1024)
	feedStats(t, eng)
	slates := eng.Slates("U_stats")
	eng.Stop()
	outs := map[string]int{}
	for e := range sub.C() {
		outs[e.Key+"="+string(e.Value)]++
	}
	if sub.Dropped() != 0 {
		t.Fatalf("S_out subscriber dropped %d events", sub.Dropped())
	}
	return slates, outs
}

// TestTypedUntypedEquivalence runs the typed and untyped variant of
// the same app under both engines and asserts identical slates (bytes)
// and identical output streams.
func TestTypedUntypedEquivalence(t *testing.T) {
	for _, engine := range []struct {
		name string
		cfg  muppet.Config
	}{
		{"engine2", muppet.Config{Machines: 2, ThreadsPerMachine: 2}},
		{"engine1", muppet.Config{Engine: muppet.EngineV1, Machines: 2, WorkersPerFunction: 2}},
	} {
		t.Run(engine.name, func(t *testing.T) {
			untypedSlates, untypedOuts := runStats(t, statsAppUntyped(), engine.cfg)
			typedSlates, typedOuts := runStats(t, statsAppTyped(), engine.cfg)
			if len(typedSlates) == 0 {
				t.Fatal("typed app produced no slates")
			}
			if len(typedSlates) != len(untypedSlates) {
				t.Fatalf("slate key counts differ: typed %d, untyped %d", len(typedSlates), len(untypedSlates))
			}
			keys := make([]string, 0, len(typedSlates))
			for k := range typedSlates {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				if !bytes.Equal(typedSlates[k], untypedSlates[k]) {
					t.Fatalf("slate %q differs: typed %q, untyped %q", k, typedSlates[k], untypedSlates[k])
				}
			}
			if fmt.Sprint(typedOuts) != fmt.Sprint(untypedOuts) {
				t.Fatalf("outputs differ: typed %v, untyped %v", typedOuts, untypedOuts)
			}
		})
	}
}

// TestTypedSlatesPersistAsPlainCodecOutput proves typed slates at rest
// are plain codec output: what StoredSlates (and a fresh engine)
// decodes from the store equals what the live engine serves — and it
// is valid JSON for the default JSONCodec.
func TestTypedSlatesPersistAsPlainCodecOutput(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
	cfg := muppet.Config{
		Machines: 2, Store: store, StoreLevel: muppet.One,
		FlushPolicy: muppet.FlushInterval, FlushEvery: 5 * time.Millisecond,
	}
	eng, err := muppet.NewEngine(statsAppTyped(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	feedStats(t, eng)
	live := eng.Slates("U_stats")
	eng.FlushSlates()
	stored := eng.StoredSlates("U_stats")
	eng.Stop()
	if len(stored) != len(live) {
		t.Fatalf("stored %d slates, live %d", len(stored), len(live))
	}
	for k, v := range live {
		if !json.Valid(v) {
			t.Fatalf("slate %q is not valid JSON: %q", k, v)
		}
		if !bytes.Equal(stored[k], v) {
			t.Fatalf("slate %q at rest %q != live %q", k, stored[k], v)
		}
	}

	// A fresh engine over the same store resumes from the JSON rows.
	eng2, err := muppet.NewEngine(statsAppTyped(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Stop()
	eng2.Ingest(muppet.Event{Stream: "S1", TS: 99, Key: "x", Value: []byte("be")})
	eng2.Drain()
	var after wordStats
	if err := json.Unmarshal(eng2.Slate("U_stats", "be"), &after); err != nil {
		t.Fatal(err)
	}
	var before wordStats
	json.Unmarshal(live["be"], &before)
	if after.Count != before.Count+1 {
		t.Fatalf("restart lost state: before %d, after %d", before.Count, after.Count)
	}
}

// TestUntypedSlatesStayByteForByte pins the classic API's contract
// under both engines: whatever bytes ReplaceSlate stored — including
// blobs that are not valid JSON or UTF-8 — come back verbatim from
// Slate, Slates, and the durable store.
func TestUntypedSlatesStayByteForByte(t *testing.T) {
	blob := func(i int) []byte {
		return append([]byte{0x00, 0xff, 0xfe, byte(i)}, []byte("opaque\x01")...)
	}
	app := func() *muppet.App {
		u := muppet.UpdateFunc{FName: "U_blob", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
			n := 0
			if sl != nil {
				n = int(sl[3])
			}
			emit.ReplaceSlate(blob(n + 1))
		}}
		a := muppet.NewApp("blobs").Input("S1")
		a.AddUpdate(u, []string{"S1"}, nil, 0)
		return a
	}
	for _, tc := range []struct {
		name string
		cfg  muppet.Config
	}{
		{"engine2", muppet.Config{Machines: 2}},
		{"engine1", muppet.Config{Engine: muppet.EngineV1, Machines: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
			cfg := tc.cfg
			cfg.Store = store
			cfg.StoreLevel = muppet.One
			cfg.FlushPolicy = muppet.WriteThrough
			eng, err := muppet.NewEngine(app(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			for i := 0; i < 3; i++ {
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: "k"})
			}
			eng.Drain()
			want := blob(3)
			if got := eng.Slate("U_blob", "k"); !bytes.Equal(got, want) {
				t.Fatalf("live slate = %x, want %x", got, want)
			}
			eng.FlushSlates()
			if got := eng.StoredSlates("U_blob")["k"]; !bytes.Equal(got, want) {
				t.Fatalf("stored slate = %x, want %x", got, want)
			}
		})
	}
}

// TestNewEngineReturnsValidationError covers the construction-time
// error surface: unknown subscribe stream, publish into an external
// input, duplicate registration, and nil functions all come back from
// NewEngine as a *muppet.ValidationError (for both engines), never a
// panic.
func TestNewEngineReturnsValidationError(t *testing.T) {
	noop := func(name string) muppet.Updater {
		return muppet.UpdateFunc{FName: name, Fn: func(muppet.Emitter, muppet.Event, []byte) {}}
	}
	cases := []struct {
		name string
		app  *muppet.App
		want string
	}{
		{"unknown subscribe stream", muppet.NewApp("a").Input("S1").
			AddUpdate(noop("U"), []string{"ghost"}, nil, 0), "ghost"},
		{"publish into external input", muppet.NewApp("b").Input("S1").
			AddUpdate(noop("U"), []string{"S1"}, []string{"S1"}, 0), "external input"},
		{"duplicate function name", muppet.NewApp("c").Input("S1").
			AddUpdate(noop("U"), []string{"S1"}, nil, 0).
			AddUpdate(noop("U"), []string{"S1"}, nil, 0), "duplicate"},
		{"nil function", muppet.NewApp("d").Input("S1").
			AddUpdate(nil, []string{"S1"}, nil, 0), "nil"},
		{"nil typed body", muppet.NewApp("e").Input("S1").
			AddUpdate(muppet.Update[int]("U", nil), []string{"S1"}, nil, 0), "nil"},
	}
	for _, version := range []muppet.EngineVersion{muppet.EngineV2, muppet.EngineV1} {
		for _, tc := range cases {
			t.Run(fmt.Sprintf("v%d/%s", version, tc.name), func(t *testing.T) {
				_, err := muppet.NewEngine(tc.app, muppet.Config{Engine: version, Machines: 1})
				if err == nil {
					t.Fatal("NewEngine accepted an invalid app")
				}
				var ve *muppet.ValidationError
				if !errors.As(err, &ve) {
					t.Fatalf("error type %T (%v), want *muppet.ValidationError", err, err)
				}
				if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
					t.Fatalf("error %q missing %q", err, tc.want)
				}
			})
		}
	}
}

// A typed slate that stops encoding is not silent: the first failed
// encode logs one `encode` loss naming the updater and key, the gauge
// counts the slate while it is wedged, retries add nothing, and a later
// value that encodes clears it and reaches the store.
func TestPoisonedSlateIsReported(t *testing.T) {
	type acc struct{ X float64 }
	u := muppet.Update[acc]("U", func(_ muppet.Emitter, in muppet.Event, s *acc) {
		if string(in.Value) == "reset" {
			s.X = 1
		} else {
			s.X = 2*s.X + 1e308 // the second doubling overflows to +Inf
		}
	})
	for _, version := range []muppet.EngineVersion{muppet.EngineV1, muppet.EngineV2} {
		store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
		eng, err := muppet.NewEngine(muppet.NewApp("poison").Input("S").AddUpdate(u, []string{"S"}, nil, 0),
			muppet.Config{Engine: version, Store: store, StoreLevel: muppet.One})
		if err != nil {
			t.Fatal(err)
		}
		send := func(value string) {
			eng.Ingest(muppet.Event{Stream: "S", Key: "k", Value: []byte(value)})
			eng.Drain()
			eng.FlushSlates()
		}
		send("double")
		send("double") // +Inf: JSON cannot encode it
		eng.FlushSlates()
		eng.Slate("U", "k") // reads retry the encode too
		lost := eng.LostEvents().Recent()
		if len(lost) != 1 || lost[0].Reason.String() != "encode" || lost[0].Func != "U" || lost[0].Ev.Key != "k" {
			t.Fatalf("engine %v: lost log %+v, want exactly one encode loss for U/k", version, lost)
		}
		lines := scrapeMetrics(t, eng)
		if lines["muppet_slate_poisoned_slates"] != 1 || lines[`muppet_lost_events_total{reason="encode"}`] != 1 ||
			lines["muppet_slate_encode_errors_total"] < 3 {
			t.Fatalf("engine %v: poisoned=%v encode losses=%v encode errors=%v, want 1, 1, >= 3", version,
				lines["muppet_slate_poisoned_slates"], lines[`muppet_lost_events_total{reason="encode"}`], lines["muppet_slate_encode_errors_total"])
		}
		if got := eng.StoredSlates("U")["k"]; string(got) != `{"X":1e+308}` {
			t.Fatalf("engine %v: store holds %s while poisoned, want the last value that encoded", version, got)
		}
		send("reset")
		if n := metric(t, eng, "muppet_slate_poisoned_slates"); n != 0 {
			t.Fatalf("engine %v: %v slates still poisoned after a finite write", version, n)
		}
		if got := eng.StoredSlates("U")["k"]; string(got) != `{"X":1}` {
			t.Fatalf("engine %v: store holds %s after the finite write, want {\"X\":1}", version, got)
		}
		if n := eng.LostEvents().Total(); n != 1 {
			t.Fatalf("engine %v: %d losses logged, want 1", version, n)
		}
		eng.Stop()
	}
}
