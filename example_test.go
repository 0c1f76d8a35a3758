package muppet_test

import (
	"context"
	"fmt"
	"strconv"

	"muppet"
)

// Example demonstrates the smallest complete MapUpdate application: a
// per-key counter — written against the typed slate API, where the
// slate is a live Go value mutated in place — whose slates are
// queryable while the stream flows.
func Example() {
	count := muppet.Update[int]("U_count", func(emit muppet.Emitter, in muppet.Event, n *int) {
		*n++
	})
	app := muppet.NewApp("counts").Input("S1")
	app.AddUpdate(count, []string{"S1"}, nil, 0)

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 2})
	if err != nil {
		panic(err)
	}
	defer eng.Stop()

	for i := 0; i < 3; i++ {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: "walmart"})
	}
	eng.Drain()
	fmt.Println(string(eng.Slate("U_count", "walmart")))
	// Output: 3
}

// ExampleUpdate shows a struct slate on the typed API: the object is
// decoded once when it enters the slate cache, every event after that
// mutates it in place, and the JSON encoding is produced only when the
// slate is flushed or read — never per event.
func ExampleUpdate() {
	type SectionStats struct {
		Hits int    `json:"hits"`
		Last string `json:"last"`
	}
	stats := muppet.Update[SectionStats]("U_stats", func(emit muppet.Emitter, in muppet.Event, s *SectionStats) {
		s.Hits++
		s.Last = string(in.Value)
	})
	app := muppet.NewApp("stats").Input("requests")
	app.AddUpdate(stats, []string{"requests"}, nil, 0)

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer eng.Stop()

	eng.Ingest(muppet.Event{Stream: "requests", TS: 1, Key: "cart", Value: []byte("/cart")})
	eng.Ingest(muppet.Event{Stream: "requests", TS: 2, Key: "cart", Value: []byte("/cart/checkout")})
	eng.Drain()
	fmt.Println(string(eng.Slate("U_stats", "cart")))
	// Output: {"hits":2,"last":"/cart/checkout"}
}

// ExampleNewApp shows a two-stage workflow: a map function fanning a
// line out into words, and a typed update function counting them — the
// MapReduce feel the paper preserves for streams.
func ExampleNewApp() {
	split := muppet.MapFunc{FName: "M_split", Fn: func(emit muppet.Emitter, in muppet.Event) {
		for _, w := range []string{"to", "be", "or", "not", "to", "be"} {
			emit.Publish("words", w, nil)
		}
	}}
	count := muppet.Update[int]("U_count", func(emit muppet.Emitter, in muppet.Event, n *int) {
		*n++
	})
	app := muppet.NewApp("wordcount").
		Input("lines").
		AddMap(split, []string{"lines"}, []string{"words"}).
		AddUpdate(count, []string{"words"}, nil, 0)

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer eng.Stop()
	eng.Ingest(muppet.Event{Stream: "lines", TS: 1, Key: "line1"})
	eng.Drain()
	fmt.Println(string(eng.Slate("U_count", "to")), string(eng.Slate("U_count", "be")), string(eng.Slate("U_count", "or")))
	// Output: 2 2 1
}

// ExampleUpdateFunc shows the classic byte-slate API, which remains
// fully supported with unchanged semantics: the function receives the
// raw slate bytes and replaces them explicitly.
func ExampleUpdateFunc() {
	count := muppet.UpdateFunc{FName: "U_count", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	app := muppet.NewApp("counts").Input("S1")
	app.AddUpdate(count, []string{"S1"}, nil, 0)

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 1})
	if err != nil {
		panic(err)
	}
	defer eng.Stop()
	eng.Ingest(muppet.Event{Stream: "S1", TS: 1, Key: "k"})
	eng.Ingest(muppet.Event{Stream: "S1", TS: 2, Key: "k"})
	eng.Drain()
	fmt.Println(string(eng.Slate("U_count", "k")))
	// Output: 2
}

// ExampleNewStore shows slates persisting to the replicated key-value
// store and surviving an engine restart — the Section 4.2 durability
// story. Typed slates are stored as plain codec output (here JSON), so
// a restarted engine decodes them straight back into live objects.
func ExampleNewStore() {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	count := muppet.Update[int]("U", func(emit muppet.Emitter, in muppet.Event, n *int) {
		*n++
	})
	mkApp := func() *muppet.App {
		app := muppet.NewApp("durable").Input("S1")
		app.AddUpdate(count, []string{"S1"}, nil, 0)
		return app
	}
	cfg := muppet.Config{Machines: 2, Store: store, StoreLevel: muppet.Quorum, FlushPolicy: muppet.WriteThrough}

	eng1, _ := muppet.NewEngine(mkApp(), cfg)
	eng1.Ingest(muppet.Event{Stream: "S1", TS: 1, Key: "k"})
	eng1.Ingest(muppet.Event{Stream: "S1", TS: 2, Key: "k"})
	eng1.Drain()
	eng1.Stop()

	// A fresh engine on the same store resumes where the first left
	// off.
	eng2, _ := muppet.NewEngine(mkApp(), cfg)
	defer eng2.Stop()
	eng2.Ingest(muppet.Event{Stream: "S1", TS: 3, Key: "k"})
	eng2.Drain()
	fmt.Println(string(eng2.Slate("U", "k")))
	// Output: 3
}

// ExamplePump shows the streaming ingress/egress surface: a rate-free
// Source pumped through the engine in batches, with a live
// subscription consuming the output stream as it is produced.
func ExamplePump() {
	relay := muppet.MapFunc{FName: "M_relay", Fn: func(emit muppet.Emitter, in muppet.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	app := muppet.NewApp("stream").
		Input("S1").
		Output("S2").
		AddMap(relay, []string{"S1"}, []string{"S2"})

	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 2})
	if err != nil {
		panic(err)
	}

	sub := eng.Subscribe("S2", 1024)
	received := make(chan int)
	go func() {
		n := 0
		for range sub.C() {
			n++
		}
		received <- n
	}()

	i := 0
	src := muppet.Take(muppet.SourceFunc(func() (muppet.Event, bool) {
		i++
		return muppet.Event{Stream: "S1", TS: muppet.Timestamp(i), Key: strconv.Itoa(i)}, true
	}), 500)
	stats, err := muppet.Pump(context.Background(), eng, src, 128)
	if err != nil {
		panic(err)
	}
	eng.Stop() // drains, then closes subscription channels

	fmt.Printf("pumped %d events in %d batches, accepted %d, subscriber saw %d\n",
		stats.Events, stats.Batches, stats.Accepted, <-received)
	// Output: pumped 500 events in 4 batches, accepted 500, subscriber saw 500
}
