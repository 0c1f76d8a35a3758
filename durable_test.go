package muppet_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"time"

	"muppet"
	"muppet/muppetapps"
)

// These tests cover the durable slate store end to end: an engine
// flushes slates into LSM files on disk, the whole process state is
// torn down, and a fresh engine opened on the same directory serves
// the stored slates — the paper's "slates survive machine failures
// because they live in Cassandra" argument, with a real storage
// engine standing in for Cassandra.

func durableStoreConfig(dir string) muppet.StoreConfig {
	return muppet.StoreConfig{Nodes: 3, ReplicationFactor: 2, Dir: dir}
}

func TestDurableStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	store, err := muppet.OpenStore(durableStoreConfig(dir))
	if err != nil {
		t.Fatal(err)
	}

	// First life: run the retailer app, flush every dirty slate, and
	// remember what the engine computed.
	eng := startRetailer(t, muppet.Config{
		Machines: 3, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour, // idle flusher: FlushSlates must do the work
		QueueCapacity: 1 << 15,
	}, 2000)
	eng.FlushSlates()
	want := map[string]string{}
	for _, r := range muppetapps.RetailerSet() {
		if v := eng.Slate("U1", r); len(v) > 0 {
			want[r] = string(v)
		}
	}
	if len(want) == 0 {
		t.Fatal("workload produced no slates")
	}
	eng.Stop()
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// Second life: reopen the same directory under a brand-new engine
	// that has ingested nothing. Everything it knows came off disk.
	store, err = muppet.OpenStore(durableStoreConfig(dir))
	if err != nil {
		t.Fatalf("reopen store: %v", err)
	}
	defer store.Close()
	eng, err2 := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
		Machines: 3, Store: store, StoreLevel: muppet.Quorum,
		QueueCapacity: 1 << 15,
	})
	if err2 != nil {
		t.Fatal(err2)
	}
	defer eng.Stop()

	stored := eng.StoredSlates("U1")
	for r, v := range want {
		if got := string(stored[r]); got != v {
			t.Fatalf("StoredSlates[%s] = %q after restart, want %q", r, got, v)
		}
	}
	// The read path falls through the (cold) cache to the store too.
	for r, v := range want {
		if got := string(eng.Slate("U1", r)); got != v {
			t.Fatalf("Slate(U1, %s) = %q after restart, want %q", r, got, v)
		}
	}

	// Rejoin warm-up reads the recovered slates: crash each machine and
	// revive it; across the cluster the rejoins must pre-load slates
	// from the durable store (the bounded warm scan over LSM segments).
	warmed := 0
	for _, m := range eng.Cluster().MachineNames() {
		eng.CrashMachine(m)
		rep, err := eng.RejoinMachine(m)
		if err != nil {
			t.Fatalf("rejoin %s: %v", m, err)
		}
		warmed += rep.Warmed
	}
	if warmed == 0 {
		t.Fatal("no slates warmed from the durable store on rejoin")
	}
}

// storedStat is a slate of every kind JSONCodec's plan writes itself,
// some under omitempty; the "<" in some Last values makes those slates
// take encoding/json's path instead.
type storedStat struct {
	N     int64    `json:"n"`
	Score float64  `json:"score"`
	Last  string   `json:"last"`
	Tiny  float32  `json:"tiny"`
	Even  bool     `json:"even,omitempty"`
	Tags  []string `json:"tags,omitempty"`
	In    struct {
		U uint16 `json:"u"`
	} `json:"in"`
}

func (s *storedStat) apply(in muppet.Event) {
	s.N++
	s.Score += 0.1 * float64(in.TS%7)
	s.Last = in.Key + "@" + strconv.Itoa(int(in.TS))
	if in.Key[len(in.Key)-1] == '3' {
		s.Last = "<" + s.Last
	}
	s.Tiny = float32(in.TS) / 3
	s.Even = in.TS%2 == 0
	if len(s.Tags) < 3 {
		s.Tags = append(s.Tags, strconv.Itoa(int(in.TS%5)))
	}
	s.In.U = uint16(in.TS)
}

func (s *hit) apply(in muppet.Event) {
	s.N++
	s.Score += 0.1
	s.Shard = "s" + in.Key[len(in.Key)-1:]
}

// marshalCodec is JSONCodec as it was before its plan: json.Marshal and
// json.Unmarshal on every call.
type marshalCodec[S any] struct{}

func (marshalCodec[S]) Decode(data []byte) (*S, error) {
	s := new(S)
	if err := json.Unmarshal(data, s); err != nil {
		return nil, err
	}
	return s, nil
}

func (marshalCodec[S]) AppendEncode(dst []byte, s *S) ([]byte, error) {
	b, err := json.Marshal(s)
	return append(dst, b...), err
}

// storedApp runs both slate types, through JSONCodec or, when marshal
// is set, through marshalCodec.
func storedApp(marshal bool) *muppet.App {
	statFn := func(_ muppet.Emitter, in muppet.Event, s *storedStat) { s.apply(in) }
	hitFn := func(_ muppet.Emitter, in muppet.Event, s *hit) { s.apply(in) }
	stat, h := muppet.Update("U_stat", statFn), muppet.Update("U_hit", hitFn)
	if marshal {
		stat = muppet.UpdateWith("U_stat", marshalCodec[storedStat]{}, statFn)
		h = muppet.UpdateWith("U_hit", marshalCodec[hit]{}, hitFn)
	}
	return muppet.NewApp("stored").Input("S").
		AddUpdate(stat, []string{"S"}, nil, 0).
		AddUpdate(h, []string{"S"}, nil, 0)
}

// Slates that encoding/json wrote stay readable under the codec plan,
// and the plan writes what encoding/json would have: a store filled by
// json.Marshal is reopened under JSONCodec, which must serve the same
// slates and query answers, and after more events flush the same bytes
// as a run that never left encoding/json.
func TestStoredSlatesReadableAcrossCodecPlan(t *testing.T) {
	const keys = 30
	round := func(r int) []muppet.Event {
		evs := make([]muppet.Event, keys)
		for i := range evs {
			evs[i] = muppet.Event{Stream: "S", TS: muppet.Timestamp(r*keys + i + 1), Key: fmt.Sprintf("k%02d", i)}
		}
		return evs
	}
	updaters := []string{"U_stat", "U_hit"}
	queries := []muppet.QuerySpec{
		{Updater: "U_hit"}, {Updater: "U_stat"},
		{Updater: "U_hit", Agg: "sum", By: "score", GroupBy: "shard"},
		{Updater: "U_hit", Fields: []string{"n", "shard"}, Where: []muppet.QueryPred{{Field: "n", Op: ">=", Value: "2"}}},
		{Updater: "U_stat", Agg: "topk", By: "tiny", K: 5},
		{Updater: "U_stat", Fields: []string{"last", "in.u"}},
	}
	type life struct {
		eng   muppet.Engine
		store *muppet.Store
	}
	open := func(dir string, marshal bool) life {
		store, err := muppet.OpenStore(durableStoreConfig(dir))
		if err != nil {
			t.Fatal(err)
		}
		eng, err := muppet.NewEngine(storedApp(marshal), muppet.Config{
			Machines: 2, Store: store, StoreLevel: muppet.Quorum, DisableDualQueue: true,
			FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour, QueueCapacity: 1 << 12,
		})
		if err != nil {
			t.Fatal(err)
		}
		return life{eng, store}
	}
	run := func(l life, from, to int) {
		for r := from; r < to; r++ {
			if _, err := l.eng.IngestBatch(round(r)); err != nil {
				t.Fatal(err)
			}
			l.eng.Drain()
		}
		l.eng.FlushSlates()
	}
	shut := func(l life) {
		l.eng.Stop()
		if err := l.store.Close(); err != nil {
			t.Fatal(err)
		}
	}
	answers := func(eng muppet.Engine) []string {
		var out []string
		for _, spec := range queries {
			res, err := eng.Query(spec)
			if err != nil || res.Stats.DecodeErrors != 0 {
				t.Fatalf("%+v: %+v, %v", spec, res, err)
			}
			b, _ := json.Marshal([]any{res.Rows, res.Groups})
			out = append(out, string(b))
		}
		return out
	}
	sameSlates := func(what string, got, want map[string][]byte) {
		t.Helper()
		if len(got) != keys || len(want) != keys {
			t.Fatalf("%s: %d slates, want %d", what, len(got), keys)
		}
		for k, v := range want {
			if !bytes.Equal(got[k], v) {
				t.Fatalf("%s[%s] = %s, want %s", what, k, got[k], v)
			}
		}
	}

	// encoding/json fills the store.
	dir := t.TempDir()
	l := open(dir, true)
	run(l, 0, 4)
	written := map[string]map[string][]byte{}
	for _, u := range updaters {
		written[u] = l.eng.StoredSlates(u)
	}
	before := answers(l.eng)
	shut(l)

	// The plan reads it back, answers the same, and writes on.
	l = open(dir, false)
	for _, u := range updaters {
		sameSlates(u+" reopened", l.eng.StoredSlates(u), written[u])
		for k, v := range written[u] {
			if got := l.eng.Slate(u, k); !bytes.Equal(got, v) {
				t.Fatalf("Slate(%s, %s) = %s, want %s", u, k, got, v)
			}
		}
	}
	if got := answers(l.eng); !slices.Equal(got, before) {
		t.Fatalf("queries over the reopened store:\n%q\nwant\n%q", got, before)
	}
	run(l, 4, 7)
	after := answers(l.eng)
	flushed := map[string]map[string][]byte{}
	for _, u := range updaters {
		flushed[u] = l.eng.StoredSlates(u)
	}
	shut(l)

	// A run that never left encoding/json flushes the same bytes.
	l = open(t.TempDir(), true)
	defer shut(l)
	run(l, 0, 7)
	for _, u := range updaters {
		sameSlates(u+" re-flushed", flushed[u], l.eng.StoredSlates(u))
	}
	if got := answers(l.eng); !slices.Equal(got, after) {
		t.Fatalf("queries after more events:\n%q\nwant\n%q", after, got)
	}

	// And what the plan wrote is what json.Unmarshal reads back: the
	// fold of each key's events.
	for i := 0; i < keys; i++ {
		var stat storedStat
		var h hit
		for r := 0; r < 7; r++ {
			stat.apply(round(r)[i])
			h.apply(round(r)[i])
		}
		k := fmt.Sprintf("k%02d", i)
		var gotStat storedStat
		var gotHit hit
		if err := json.Unmarshal(flushed["U_stat"][k], &gotStat); err != nil || !reflect.DeepEqual(gotStat, stat) {
			t.Fatalf("U_stat/%s = %s (%v), want %+v", k, flushed["U_stat"][k], err, stat)
		}
		if err := json.Unmarshal(flushed["U_hit"][k], &gotHit); err != nil || gotHit != h {
			t.Fatalf("U_hit/%s = %s (%v), want %+v", k, flushed["U_hit"][k], err, h)
		}
	}
}

// A metrics gather reads no stored row: two gathers with no slate
// reads between them leave the disk-read counter where it was, however
// many rows the store's segments hold.
func TestMetricsGatherReadsNoSegments(t *testing.T) {
	store, err := muppet.OpenStore(durableStoreConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	eng := startRetailer(t, muppet.Config{
		Machines: 3, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour,
		QueueCapacity: 1 << 15,
	}, 2000)
	defer eng.Stop()
	eng.FlushSlates()
	if err := store.Cluster().FlushAll(); err != nil { // the rows go to segment files
		t.Fatal(err)
	}
	diskRead := func() float64 {
		t.Helper()
		m, ok := eng.Metrics().Find("muppet_lsm_disk_read_bytes_total")
		if !ok {
			t.Fatal("no muppet_lsm_disk_read_bytes_total in the gather")
		}
		return m.Value
	}
	if first, second := diskRead(), diskRead(); second != first {
		t.Fatalf("disk bytes read went %v -> %v across two gathers with no reads between", first, second)
	}
}
