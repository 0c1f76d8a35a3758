package engine2

import (
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/workload"
)

// TestKeptPayloadsSurviveLaterChunks: a map on two worker threads keeps
// every tweet it decodes while each thread's emitter carves tens of
// 16 KiB chunks (about fifty tweets to a chunk), and an updater reads
// the same objects re-published. Afterwards every kept object still
// equals its document: no carve overlapped a block handed out before
// it, on its own thread or the other's (under -race, two threads
// carving one chunk is a race).
func TestKeptPayloadsSurviveLaterChunks(t *testing.T) {
	const events = 6000
	type kept struct {
		doc []byte
		tw  *workload.Tweet
	}
	var mu sync.Mutex
	var all []kept
	decode := func(emit core.Emitter, in event.Event) *workload.Tweet {
		tw, err := core.Payload[workload.Tweet](emit, in)
		if err != nil {
			t.Errorf("decoding %s: %v", in.Value, err)
			return nil
		}
		mu.Lock()
		all = append(all, kept{in.Value, tw})
		mu.Unlock()
		return tw
	}
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		if decode(emit, in) != nil {
			emit.Publish("S2", in.Key, in.Value)
		}
	}}
	u := core.Update("U", func(emit core.Emitter, in event.Event, n *int) {
		if tw := decode(emit, in); tw != nil && tw.User == in.Key {
			*n++
		}
	})
	app := core.NewApp("kept").Input("S1").
		AddMap(m, []string{"S1"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, nil, 0)
	e, err := New(app, Config{Machines: 1, ThreadsPerMachine: 2, QueueCapacity: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	evs := workload.New(workload.Config{Seed: 9, Users: 500, URLFraction: 0.5}).Tweets("S1", events)
	for i := 0; i < len(evs); i += 500 {
		if n, err := e.IngestBatch(evs[i : i+500]); n != 500 || err != nil {
			t.Fatalf("ingest: %d accepted, %v", n, err)
		}
		e.Drain()
	}
	if len(all) != 2*events {
		t.Fatalf("%d payloads read for %d tweets, want two each", len(all), events)
	}
	objects := map[*workload.Tweet]bool{}
	for _, k := range all {
		objects[k.tw] = true
		var want workload.Tweet
		if err := json.Unmarshal(k.doc, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(*k.tw, want) {
			t.Fatalf("kept %#v, its document says %#v", *k.tw, want)
		}
	}
	if len(objects) != events {
		t.Fatalf("%d distinct objects for %d tweets, want one each, shared by map and updater", len(objects), events)
	}
}
