package query

import (
	"encoding/json"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"muppet/internal/slate"
)

func row(key string, v any) InputRow {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return InputRow{Key: key, Raw: b}
}

func TestSpecNormalize(t *testing.T) {
	bad := []Spec{
		{},
		{Updater: "U", Agg: "median"},
		{Updater: "U", Agg: AggSum},
		{Updater: "U", Agg: AggTopK, K: -1},
		{Updater: "U", Where: []Pred{{Field: "x", Op: "~="}}},
		{Updater: "U", Where: []Pred{{Op: "=="}}},
		{Updater: "U", Limit: -1},
	}
	for i, s := range bad {
		if err := s.Normalize(); err == nil {
			t.Errorf("spec %d: Normalize accepted %+v", i, s)
		}
	}
	s := Spec{Updater: "U", Agg: AggTopK}
	if err := s.Normalize(); err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	if s.K != 10 {
		t.Fatalf("topk K default = %d, want 10", s.K)
	}
}

func TestKeyInRange(t *testing.T) {
	s := Spec{Updater: "U", Prefix: "http://", Start: "http://b", End: "http://x"}
	for k, want := range map[string]bool{
		"http://c":  true,
		"http://b":  true,
		"http://a":  false, // below Start
		"http://x":  false, // End exclusive
		"https://c": false, // wrong prefix
	} {
		if got := s.KeyInRange(k); got != want {
			t.Errorf("KeyInRange(%q) = %v, want %v", k, got, want)
		}
	}
}

func TestExecuteScanFilterProject(t *testing.T) {
	spec := &Spec{
		Updater: "U",
		Where:   []Pred{{Field: "score", Op: ">=", Value: "2"}},
		Fields:  []string{"key", "score"},
	}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	rows := []InputRow{
		row("b", map[string]any{"score": 3, "junk": "x"}),
		row("a", map[string]any{"score": 1}),
		row("c", map[string]any{"score": 2}),
	}
	res := Execute(spec, nil, rows)
	if res.Stats.RowsScanned != 3 || res.Stats.RowsReturned != 2 {
		t.Fatalf("stats = %+v, want 3 scanned / 2 returned", res.Stats)
	}
	if len(res.Rows) != 2 || res.Rows[0].Key != "b" || res.Rows[1].Key != "c" {
		t.Fatalf("rows = %+v, want keys b, c sorted", res.Rows)
	}
	var out map[string]any
	if err := json.Unmarshal(res.Rows[0].Value, &out); err != nil {
		t.Fatal(err)
	}
	if out["key"] != "b" || out["score"] != float64(3) || len(out) != 2 {
		t.Fatalf("projection = %v, want key=b score=3 only", out)
	}
}

func TestExecuteScalarSlates(t *testing.T) {
	// Counter slates are plain JSON numbers: any non-key field reads
	// the scalar, so topk -by count ranks them.
	spec := &Spec{Updater: "U", Agg: AggTopK, By: "count", K: 2}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := Execute(spec, nil, []InputRow{
		row("Walmart", 10), row("Target", 5), row("Sam's Club", 6),
	})
	want := []string{"Walmart", "Sam's Club"}
	if len(res.Groups) != 2 || res.Groups[0].Key != want[0] || res.Groups[1].Key != want[1] {
		t.Fatalf("topk groups = %+v, want %v", res.Groups, want)
	}
	if res.Groups[0].Sum != 10 || res.Groups[1].Sum != 6 {
		t.Fatalf("topk sums = %+v, want 10 and 6", res.Groups)
	}
}

func TestExecuteGroupedAggregates(t *testing.T) {
	spec := &Spec{Updater: "U", Agg: AggSum, By: "n", GroupBy: "cat"}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := Execute(spec, nil, []InputRow{
		row("a", map[string]any{"cat": "x", "n": 1}),
		row("b", map[string]any{"cat": "y", "n": 10}),
		row("c", map[string]any{"cat": "x", "n": 4}),
	})
	if len(res.Groups) != 2 {
		t.Fatalf("groups = %+v", res.Groups)
	}
	byKey := map[string]Group{}
	for _, g := range res.Groups {
		byKey[g.Key] = g
	}
	if g := byKey["x"]; g.Sum != 5 || g.Count != 2 || g.Min != 1 || g.Max != 4 {
		t.Fatalf("group x = %+v", g)
	}
	if g := byKey["y"]; g.Sum != 10 || g.Count != 1 {
		t.Fatalf("group y = %+v", g)
	}
}

func TestExecuteSkipsUndecodableRows(t *testing.T) {
	spec := &Spec{Updater: "U", Agg: AggCount}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	res := Execute(spec, jsonCodec{}, []InputRow{
		{Key: "good", Raw: []byte(`{"a":1}`)},
		{Key: "bad", Raw: []byte(`{{{`)},
	})
	if res.Stats.DecodeErrors != 1 {
		t.Fatalf("decode errors = %d, want 1", res.Stats.DecodeErrors)
	}
	if len(res.Groups) != 1 || res.Groups[0].Count != 1 {
		t.Fatalf("groups = %+v, want one group counting 1", res.Groups)
	}
}

// jsonCodec is a minimal slate.Codec for tests; its slate object is
// whatever json.Unmarshal into an any makes.
type jsonCodec struct{ slate.Alloc[any] }

func (jsonCodec) Decode(b []byte) (any, error) {
	var v any
	err := json.Unmarshal(b, &v)
	return v, err
}
func (jsonCodec) AppendEncode(dst []byte, v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(dst, b...), err
}

func TestTopKBoundedHeap(t *testing.T) {
	var gs []Group
	for i := 0; i < 100; i++ {
		gs = append(gs, Group{Key: fmt.Sprintf("k%03d", i), Count: uint64(i)})
	}
	top := topK(gs, "", 3)
	if len(top) != 3 || top[0].Count != 99 || top[1].Count != 98 || top[2].Count != 97 {
		t.Fatalf("topK = %+v", top)
	}
	// Ties break toward the smaller key.
	tied := topK([]Group{{Key: "b", Count: 5}, {Key: "a", Count: 5}, {Key: "c", Count: 5}}, "", 2)
	if tied[0].Key != "a" || tied[1].Key != "b" {
		t.Fatalf("tie-break = %+v, want a then b", tied)
	}
}

func TestMergeRowsCacheWins(t *testing.T) {
	cached := []InputRow{{Key: "b", Raw: []byte("fresh")}}
	stored := []InputRow{{Key: "a", Raw: []byte("olda")}, {Key: "b", Raw: []byte("stale")}}
	// The overlay that replaced MergeRows: cache rows first, then the
	// store rows the executor has not Seen.
	x := Compile(&Spec{Updater: "U"}, nil, len(cached))
	for _, r := range cached {
		x.Cached(slate.CacheRow{Key: r.Key, Raw: r.Raw})
	}
	for _, r := range stored {
		if !x.Seen(r.Key) {
			x.Raw(r.Key, r.Raw)
		}
	}
	got := x.Result().Rows
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" || string(got[1].Value) != `"fresh"` {
		t.Fatalf("overlay = %+v", got)
	}
}

// twoMachineCoordinator splits rows across two fake machines, one
// "local" and one behind the JSON wire hooks, so the merge and the
// WireBytes accounting are both exercised.
func twoMachineCoordinator(t *testing.T, spec *Spec, byMachine map[string][]InputRow) *Coordinator {
	t.Helper()
	local := func(m string, sp *Spec) (*NodeResult, error) {
		return Execute(sp, nil, byMachine[m]), nil
	}
	return &Coordinator{
		Machines: []string{"m0", "m1"},
		IsLocal:  func(m string) bool { return m == "m0" },
		Local:    local,
		Remote: func(m string, req []byte) ([]byte, error) {
			sp, err := DecodeRequest(req)
			if err != nil {
				return nil, err
			}
			nr, err := local(m, sp)
			if err != nil {
				return nil, err
			}
			return EncodeResponse(nr)
		},
	}
}

func TestCoordinatorMergesPartials(t *testing.T) {
	spec := &Spec{Updater: "U", Agg: AggTopK, By: "count", K: 2}
	byMachine := map[string][]InputRow{
		"m0": {row("Walmart", 6), row("Target", 5)},
		"m1": {row("Walmart", 4), row("Costco", 1)},
	}
	res, err := twoMachineCoordinator(t, spec, byMachine).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Walmart's partials (6 + 4) must merge before ranking.
	if len(res.Groups) != 2 || res.Groups[0].Key != "Walmart" || res.Groups[0].Sum != 10 {
		t.Fatalf("groups = %+v, want Walmart=10 first", res.Groups)
	}
	if res.Groups[1].Key != "Target" || res.Groups[1].Sum != 5 {
		t.Fatalf("groups = %+v, want Target=5 second", res.Groups)
	}
	if res.Stats.FanoutMachines != 2 || res.Stats.RowsScanned != 4 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.WireBytes == 0 {
		t.Fatal("remote partial crossed the wire but WireBytes stayed zero")
	}
}

func TestCoordinatorDedupsRows(t *testing.T) {
	spec := &Spec{Updater: "U"}
	// Both machines answer for "dup" (a mid-failover overlap): the
	// merged scan must carry it once.
	byMachine := map[string][]InputRow{
		"m0": {row("dup", 1), row("a", 2)},
		"m1": {row("dup", 1), row("z", 3)},
	}
	res, err := twoMachineCoordinator(t, spec, byMachine).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, r := range res.Rows {
		keys = append(keys, r.Key)
	}
	if !reflect.DeepEqual(keys, []string{"a", "dup", "z"}) {
		t.Fatalf("rows = %v, want [a dup z]", keys)
	}
}

func TestCoordinatorFailsOnMachineError(t *testing.T) {
	spec := &Spec{Updater: "U"}
	c := &Coordinator{
		Machines: []string{"m0", "m1"},
		IsLocal:  func(m string) bool { return m == "m0" },
		Local:    func(m string, sp *Spec) (*NodeResult, error) { return Execute(sp, nil, nil), nil },
		Remote:   func(m string, req []byte) ([]byte, error) { return nil, fmt.Errorf("boom") },
	}
	if _, err := c.Run(spec); err == nil {
		t.Fatal("partial failure must fail the query, not under-count")
	}
}

func TestWatcherEmitsOnChangeOnly(t *testing.T) {
	var mu sync.Mutex
	cur := &Result{Groups: []Group{{Key: "a", Count: 1}}}
	var emits [][]byte
	w := &Watcher{
		Interval: time.Millisecond,
		Run: func() (*Result, error) {
			mu.Lock()
			defer mu.Unlock()
			cp := *cur
			return &cp, nil
		},
		Emit: func(p []byte) {
			mu.Lock()
			emits = append(emits, append([]byte(nil), p...))
			mu.Unlock()
		},
	}
	w.Start()
	waitFor := func(n int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			got := len(emits)
			mu.Unlock()
			if got >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("watcher made %d emissions, want %d", got, n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitFor(1)
	time.Sleep(20 * time.Millisecond) // unchanged answer: no re-emission
	mu.Lock()
	if len(emits) != 1 {
		mu.Unlock()
		t.Fatalf("watcher re-emitted an unchanged answer: %d emissions", len(emits))
	}
	cur = &Result{Groups: []Group{{Key: "a", Count: 2}}}
	mu.Unlock()
	waitFor(2)
	w.Stop()
	var got Result
	if err := json.Unmarshal(emits[1], &got); err != nil {
		t.Fatal(err)
	}
	if got.Groups[0].Count != 2 {
		t.Fatalf("second emission = %+v, want count 2", got)
	}
}

func TestCountersSnapshot(t *testing.T) {
	c := NewCounters()
	c.Observe("topk", ExecStats{RowsScanned: 7, RowsReturned: 2, FanoutMachines: 3}, time.Millisecond)
	c.Observe("scan", ExecStats{RowsScanned: 1, RowsReturned: 1, FanoutMachines: 3}, time.Millisecond)
	s := c.Snapshot()
	if s.Kinds["topk"] != 1 || s.Kinds["scan"] != 1 {
		t.Fatalf("kinds = %v", s.Kinds)
	}
	if s.RowsScanned != 8 || s.RowsReturned != 3 || s.FanoutNodes != 6 {
		t.Fatalf("snapshot = %+v", s)
	}
	if c.Latency.Snapshot().Count != 2 {
		t.Fatalf("latency count = %d", c.Latency.Snapshot().Count)
	}
}

// TestCoordinatorPushdownShipsLessThanScan: a top-k over two machines'
// object slates ships the remote machine's k partials, not its rows, so
// the coordinator's wire bytes stay below the bytes the scan read.
func TestCoordinatorPushdownShipsLessThanScan(t *testing.T) {
	rows := make([]InputRow, 1000)
	for i := range rows {
		rows[i] = row(fmt.Sprintf("http://site-%05d", i), map[string]any{"count": i % 997, "kind": "url"})
	}
	spec := &Spec{Updater: "U", Agg: AggTopK, By: "count", K: 10}
	byMachine := map[string][]InputRow{"m0": rows[:500], "m1": rows[500:]}
	res, err := twoMachineCoordinator(t, spec, byMachine).Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 10 {
		t.Fatalf("groups = %d, want 10", len(res.Groups))
	}
	if res.Stats.WireBytes == 0 || res.Stats.WireBytes >= res.Stats.BytesScanned {
		t.Fatalf("pushdown shipped %d wire bytes for a %d-byte scan", res.Stats.WireBytes, res.Stats.BytesScanned)
	}
}
