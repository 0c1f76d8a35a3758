package muppet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"muppet"
	"muppet/internal/core"
	"muppet/muppetapps"
)

// Decoded payloads end to end: muppet.Payload decodes an event value at
// most once per process, and what subscribers read through it is what
// the bytes say.

// countedTweet counts its own JSON decodes.
type countedTweet struct {
	ID   uint64 `json:"id"`
	User string `json:"user"`
}

var tweetDecodes atomic.Int64

func (t *countedTweet) UnmarshalJSON(b []byte) error {
	tweetDecodes.Add(1)
	type plain countedTweet
	return json.Unmarshal(b, (*plain)(t))
}

// tweetApp is reputation-shaped: a map that reads the tweet and
// re-publishes it keyed by author, then typed updaters that read it
// again.
func tweetApp(updaters ...muppet.Updater) *muppet.App {
	m1 := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		t, err := muppet.Payload[countedTweet](emit, in)
		if err != nil {
			return
		}
		emit.Publish("S2", t.User, in.Value)
	}}
	app := muppet.NewApp("tweets").Input("S1").AddMap(m1, []string{"S1"}, []string{"S2"})
	for _, u := range updaters {
		app.AddUpdate(u, []string{"S2"}, nil, 0)
	}
	return app
}

func tweetEvents(n, users int) []muppet.Event {
	evs := make([]muppet.Event, n)
	for i := range evs {
		user := fmt.Sprintf("user%03d", i%users)
		v, _ := json.Marshal(countedTweet{ID: uint64(i + 1), User: user})
		evs[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: user, Value: v}
	}
	return evs
}

// TestAllocOneDecodePerSourceEvent: the map's decode is the only one —
// the updater reads the object that travelled beside the re-published
// bytes, across machines, on both engines. The parent design parsed
// every tweet twice.
func TestAllocOneDecodePerSourceEvent(t *testing.T) {
	const events = 2000
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{{"engine1", muppet.EngineV1}, {"engine2", muppet.EngineV2}} {
		t.Run(tc.name, func(t *testing.T) {
			u := muppet.Update[int]("U", func(emit muppet.Emitter, in muppet.Event, n *int) {
				if tw, err := muppet.Payload[countedTweet](emit, in); err == nil && tw.User == in.Key {
					*n++
				}
			})
			eng, err := muppet.NewEngine(tweetApp(u), muppet.Config{Engine: tc.version, Machines: 4, QueueCapacity: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			tweetDecodes.Store(0)
			evs := tweetEvents(events, 50)
			for i := 0; i < len(evs); i += 100 {
				if n, err := eng.IngestBatch(evs[i : i+100]); n != 100 || err != nil {
					t.Fatalf("ingest: %d accepted, %v", n, err)
				}
				eng.Drain()
			}
			total := 0
			for _, sl := range eng.Slates("U") {
				total += muppetapps.Count(sl)
			}
			if total != events {
				t.Fatalf("updater read %d tweets, want %d", total, events)
			}
			if n := tweetDecodes.Load(); n != events {
				t.Fatalf("%d tweet decodes for %d source events, want one each", n, events)
			}
		})
	}
}

// TestPayloadSharedAcrossSubscribers: two updaters subscribed to one
// stream read the same decoded object, on different threads at once. Run
// under -race: the object is shared read-only, like the bytes.
func TestPayloadSharedAcrossSubscribers(t *testing.T) {
	var mu sync.Mutex
	seen := map[uint64][]*countedTweet{}
	record := func(emit muppet.Emitter, in muppet.Event) {
		tw, err := muppet.Payload[countedTweet](emit, in)
		if err != nil || tw.User != in.Key {
			t.Errorf("payload %+v, %v for key %s", tw, err, in.Key)
			return
		}
		mu.Lock()
		seen[tw.ID] = append(seen[tw.ID], tw)
		mu.Unlock()
	}
	ua := muppet.Update[int]("UA", func(emit muppet.Emitter, in muppet.Event, n *int) { record(emit, in); *n++ })
	ub := muppet.Update[int]("UB", func(emit muppet.Emitter, in muppet.Event, n *int) { record(emit, in); *n++ })
	eng, err := muppet.NewEngine(tweetApp(ua, ub), muppet.Config{Machines: 1, ThreadsPerMachine: 4, QueueCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	evs := tweetEvents(1000, 40)
	for i := 0; i < len(evs); i += 250 {
		if n, err := eng.IngestBatch(evs[i : i+250]); n != 250 || err != nil {
			t.Fatalf("ingest: %d accepted, %v", n, err)
		}
	}
	eng.Drain()
	if len(seen) != len(evs) {
		t.Fatalf("updaters read %d distinct tweets, want %d", len(seen), len(evs))
	}
	for id, objs := range seen {
		if len(objs) != 2 || objs[0] != objs[1] {
			t.Fatalf("tweet %d: read as %d objects %v, want one shared by both updaters", id, len(objs), objs)
		}
	}
}

// TestReputationMatchesReference runs Example 3 through engine 2.0,
// where U_rep reads the tweet M1 decoded, against core.Reference, whose
// emitter decodes the bytes on every read. One event at a time, so both
// apply the order-sensitive score updates in the same order: the slates
// must be byte-identical.
func TestReputationMatchesReference(t *testing.T) {
	evs := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 26, Users: 500}).Tweets("S1", 5000)
	ref := core.NewReference(muppetapps.ReputationApp())
	eng, err := muppet.NewEngine(muppetapps.ReputationApp(), muppet.Config{Machines: 2, ThreadsPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for _, ev := range evs {
		if err := ref.Process([]muppet.Event{ev}); err != nil {
			t.Fatal(err)
		}
		if n, err := eng.IngestBatch([]muppet.Event{ev}); n != 1 || err != nil {
			t.Fatalf("ingest: %v", err)
		}
		eng.Drain()
	}
	assertSlatesEqual(t, ref.Slates("U_rep"), eng.Slates("U_rep"))
}

// assertSlatesEqual compares an engine's slates with the Reference's,
// byte for byte.
func assertSlatesEqual(t *testing.T, want, got map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d slates, reference has %d", len(got), len(want))
	}
	for k, w := range want {
		if !bytes.Equal(got[k], w) {
			t.Fatalf("slate %s = %s, reference %s", k, got[k], w)
		}
	}
}
