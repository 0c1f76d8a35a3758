package muppet_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"muppet"
)

// Query-subsystem property: a cluster-wide query answer always equals
// a brute-force recomputation over a model map — checked between live
// ingest rounds, while ingest is running, and across a machine crash,
// master-driven failover, and rejoin. Along the way it asserts the two
// scatter-gather failure modes directly: no key returned twice
// (duplicates across node partials) and no dead-lineage rows (slates
// of the crashed machine's keys surviving outside the store overlay).

// queryOracleApp counts events per key with a typed int slate, so the
// at-rest value is the JSON number the query operators aggregate.
func queryOracleApp() *muppet.App {
	u := muppet.Update[int]("U1", func(emit muppet.Emitter, in muppet.Event, n *int) { *n++ })
	return muppet.NewApp("queryprop").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// checkQueryOracle compares scan, range-scan, top-k, count, and sum
// answers against the model. Every spec carries Prefix "k" so the
// sacrificial failover-trigger keys (prefix "z") stay out of scope.
func checkQueryOracle(t *testing.T, eng muppet.Engine, model map[string]int, label string) {
	t.Helper()

	scan, err := eng.Query(muppet.QuerySpec{Updater: "U1", Prefix: "k"})
	if err != nil {
		t.Fatalf("%s: scan: %v", label, err)
	}
	seen := make(map[string]int, len(scan.Rows))
	for _, row := range scan.Rows {
		if _, dup := seen[row.Key]; dup {
			t.Fatalf("%s: scan returned key %q twice (scatter-gather duplicate)", label, row.Key)
		}
		n, err := strconv.Atoi(string(row.Value))
		if err != nil {
			t.Fatalf("%s: row %q has non-numeric value %q: %v", label, row.Key, row.Value, err)
		}
		seen[row.Key] = n
	}
	if len(seen) != len(model) {
		t.Fatalf("%s: scan returned %d keys, brute force finds %d", label, len(seen), len(model))
	}
	for k, want := range model {
		if seen[k] != want {
			t.Fatalf("%s: key %q: query says %d, brute force says %d", label, k, seen[k], want)
		}
	}

	ranged, err := eng.Query(muppet.QuerySpec{Updater: "U1", Start: "k2", End: "k6"})
	if err != nil {
		t.Fatalf("%s: range scan: %v", label, err)
	}
	wantRange := 0
	for k := range model {
		if k >= "k2" && k < "k6" {
			wantRange++
		}
	}
	if len(ranged.Rows) != wantRange {
		t.Fatalf("%s: range scan returned %d rows, brute force finds %d", label, len(ranged.Rows), wantRange)
	}

	const k = 5
	top, err := eng.Query(muppet.QuerySpec{Updater: "U1", Prefix: "k", Agg: "topk", K: k, By: "count"})
	if err != nil {
		t.Fatalf("%s: topk: %v", label, err)
	}
	// The ranking is deterministic (score descending, key ascending on
	// ties), so the expected answer is computable exactly.
	type kc struct {
		key string
		n   int
	}
	want := make([]kc, 0, len(model))
	for key, n := range model {
		want = append(want, kc{key, n})
	}
	sort.Slice(want, func(i, j int) bool {
		if want[i].n != want[j].n {
			return want[i].n > want[j].n
		}
		return want[i].key < want[j].key
	})
	if len(want) > k {
		want = want[:k]
	}
	if len(top.Groups) != len(want) {
		t.Fatalf("%s: topk returned %d groups, want %d", label, len(top.Groups), len(want))
	}
	for i, g := range top.Groups {
		if g.Key != want[i].key || int(g.Sum) != want[i].n {
			t.Fatalf("%s: topk rank %d = {%s %v}, brute force says {%s %d}", label, i, g.Key, g.Sum, want[i].key, want[i].n)
		}
	}

	count, err := eng.Query(muppet.QuerySpec{Updater: "U1", Prefix: "k", Agg: "count"})
	if err != nil {
		t.Fatalf("%s: count: %v", label, err)
	}
	if len(count.Groups) != 1 || count.Groups[0].Count != uint64(len(model)) {
		t.Fatalf("%s: count groups = %+v, brute force finds %d keys", label, count.Groups, len(model))
	}

	total := 0
	for _, n := range model {
		total += n
	}
	sum, err := eng.Query(muppet.QuerySpec{Updater: "U1", Prefix: "k", Agg: "sum", By: "count"})
	if err != nil {
		t.Fatalf("%s: sum: %v", label, err)
	}
	if len(sum.Groups) != 1 || int(sum.Groups[0].Sum) != total {
		t.Fatalf("%s: sum groups = %+v, brute force totals %d", label, sum.Groups, total)
	}

	// The same count and sum over the full key range, the "z" keys
	// filtered out by a predicate instead: a full-range pass may find the
	// caches covering the store, and from then on the node-local passes
	// skip the store — the second query here, and every round's after
	// the first, take that path.
	inScope := []muppet.QueryPred{{Field: "key", Op: "prefix", Value: "k"}}
	for _, spec := range []muppet.QuerySpec{
		{Updater: "U1", Agg: "count", Where: inScope},
		{Updater: "U1", Agg: "sum", By: "count", Where: inScope},
	} {
		res, err := eng.Query(spec)
		if err != nil {
			t.Fatalf("%s: full-range %s: %v", label, spec.Agg, err)
		}
		if len(res.Groups) != 1 || res.Groups[0].Count != uint64(len(model)) || spec.Agg == "sum" && int(res.Groups[0].Sum) != total {
			t.Fatalf("%s: full-range %s groups = %+v, brute force finds %d keys totalling %d", label, spec.Agg, res.Groups, len(model), total)
		}
	}
}

func TestPropertyQueryMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
	}{
		{"engine2", muppet.EngineV2},
		{"engine1", muppet.EngineV1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := muppet.NewEngine(queryOracleApp(), muppet.Config{
				Engine:        tc.version,
				Machines:      4,
				QueueCapacity: 1 << 14,
				// Write-through keeps the store exactly current, so a
				// crash loses no acknowledged update and the oracle stays
				// exact across failover.
				FlushPolicy: muppet.WriteThrough,
				Store:       muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3}),
				StoreLevel:  muppet.One,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()

			rng := rand.New(rand.NewSource(42))
			model := make(map[string]int)
			ts := 0
			ingestRound := func(n int) {
				t.Helper()
				evs := make([]muppet.Event, 0, n)
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(40))
					model[key]++
					ts++
					evs = append(evs, muppet.Event{Stream: "S1", TS: muppet.Timestamp(ts), Key: key})
				}
				if _, err := eng.IngestBatch(evs); err != nil {
					t.Fatalf("ingest: %v", err)
				}
				eng.Drain()
			}

			// Two live rounds: the second round's queries see slates the
			// first round already mutated.
			ingestRound(300)
			checkQueryOracle(t, eng, model, "round-1")
			ingestRound(300)
			checkQueryOracle(t, eng, model, "round-2")

			// Mid-ingest: query concurrently with a live ingest round.
			// Counts are monotonic, so any instantaneous answer must show
			// keys from the model with counts at or below the final value
			// — and never a duplicate key.
			final := make(map[string]int, len(model))
			for k, v := range model {
				final[k] = v
			}
			evs := make([]muppet.Event, 0, 300)
			for i := 0; i < 300; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(40))
				model[key]++
				final[key]++
				ts++
				evs = append(evs, muppet.Event{Stream: "S1", TS: muppet.Timestamp(ts), Key: key})
			}
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, ev := range evs {
					eng.Ingest(ev)
				}
			}()
			for i := 0; i < 5; i++ {
				res, err := eng.Query(muppet.QuerySpec{Updater: "U1", Prefix: "k"})
				if err != nil {
					t.Errorf("mid-ingest scan %d: %v", i, err)
					break
				}
				rows := make(map[string]bool, len(res.Rows))
				for _, row := range res.Rows {
					if rows[row.Key] {
						t.Errorf("mid-ingest scan %d: key %q returned twice", i, row.Key)
					}
					rows[row.Key] = true
					n, _ := strconv.Atoi(string(row.Value))
					if max, ok := final[row.Key]; !ok || n > max {
						t.Errorf("mid-ingest scan %d: key %q count %d exceeds final %d", i, row.Key, n, final[row.Key])
					}
				}
			}
			wg.Wait()
			eng.Drain()
			checkQueryOracle(t, eng, model, "mid-ingest-settled")

			// Crash one machine and trigger the master-driven failover
			// with sacrificial out-of-scope events ("z" keys: every query
			// above scans Prefix "k", so whatever happens to them cannot
			// leak into an answer).
			victim := eng.Cluster().MachineNames()[1]
			eng.CrashMachine(victim)
			deadline := time.Now().Add(15 * time.Second)
			for i := 0; eng.RecoveryStatus().Failovers == 0; i++ {
				if time.Now().After(deadline) {
					t.Fatal("failover never completed after crash")
				}
				ts++
				eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(ts), Key: fmt.Sprintf("z%d", i%8)})
				time.Sleep(time.Millisecond)
			}
			eng.Drain()
			// The dead machine's keys must be served exactly once by
			// their new owners, from the store overlay: same answer, no
			// dead-lineage rows, no duplicates.
			checkQueryOracle(t, eng, model, "post-failover")
			ingestRound(200)
			checkQueryOracle(t, eng, model, "post-failover-ingest")

			if _, err := eng.RejoinMachine(victim); err != nil {
				t.Fatalf("rejoin %s: %v", victim, err)
			}
			ingestRound(200)
			checkQueryOracle(t, eng, model, "post-rejoin")
		})
	}
}

// The same property over struct slates, which queries read through the
// typed view: every aggregation, σ, π and limit against brute force, on
// both engines, with the slates cache-resident, store-resident (a cache
// too small to hold them) and mixed.

// account is the struct slate; Spent only ever holds multiples of 0.25,
// so float sums are exact whatever order partials merge in.
type account struct {
	Owner  string  `json:"owner"`
	Region string  `json:"region"`
	N      int     `json:"n"`
	Spent  float64 `json:"spent"`
	VIP    bool    `json:"vip"`
	Geo    struct {
		Zone string  `json:"zone"`
		Lat  float64 `json:"lat"`
	} `json:"geo"`
}

// purchase is one event's payload.
type purchase struct {
	Region string  `json:"region"`
	Amount float64 `json:"amount"`
}

func (a *account) apply(key string, p purchase) {
	a.Owner = "owner-" + key
	a.Region = p.Region
	a.N++
	a.Spent += p.Amount
	a.VIP = a.Spent >= 20
	a.Geo.Zone = "zone-" + p.Region[:1]
	a.Geo.Lat = float64(len(key)*a.N) / 4
}

func accountApp() *muppet.App {
	u := muppet.Update[account]("U1", func(emit muppet.Emitter, in muppet.Event, a *account) {
		var p purchase
		if json.Unmarshal(in.Value, &p) == nil {
			a.apply(in.Key, p)
		}
	})
	return muppet.NewApp("accounts").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// bruteGroups folds the model the slow way: group, then aggregate in
// key order.
func bruteGroups(model map[string]*account, keep func(string, *account) bool, group func(string, *account) string, val func(*account) float64) map[string]muppet.QueryGroup {
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make(map[string]muppet.QueryGroup)
	for _, k := range keys {
		a := model[k]
		if !keep(k, a) {
			continue
		}
		g := out[group(k, a)]
		g.Key = group(k, a)
		g.Count++
		if val != nil {
			v := val(a)
			if g.Vals == 0 || v < g.Min {
				g.Min = v
			}
			if g.Vals == 0 || v > g.Max {
				g.Max = v
			}
			g.Vals++
			g.Sum += v
		}
		out[g.Key] = g
	}
	return out
}

func checkAccountOracle(t *testing.T, eng muppet.Engine, model map[string]*account, label string) {
	t.Helper()
	all := func(string, *account) bool { return true }
	one := func(string, *account) string { return "" }
	query := func(spec muppet.QuerySpec) *muppet.QueryResult {
		t.Helper()
		res, err := eng.Query(spec)
		if err != nil {
			t.Fatalf("%s: %+v: %v", label, spec, err)
		}
		if res.Stats.DecodeErrors != 0 {
			t.Fatalf("%s: %+v: %d decode errors", label, spec, res.Stats.DecodeErrors)
		}
		return res
	}
	// sameGroups compares on what the aggregation defines: count always,
	// min/max/vals when a field is aggregated, sum unless it is min/max.
	sameGroups := func(spec muppet.QuerySpec, want map[string]muppet.QueryGroup) {
		t.Helper()
		got := query(spec).Groups
		if len(got) != len(want) {
			t.Fatalf("%s: %+v: %d groups %+v, brute force finds %d %+v", label, spec, len(got), got, len(want), want)
		}
		for _, g := range got {
			w := want[g.Key]
			if spec.Agg == "min" || spec.Agg == "max" {
				w.Sum = 0
			}
			if g != w {
				t.Fatalf("%s: %+v: group %+v, brute force says %+v", label, spec, g, w)
			}
		}
	}
	spent := func(a *account) float64 { return a.Spent }
	region := func(_ string, a *account) string { return a.Region }

	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "count", Where: []muppet.QueryPred{{Field: "region", Op: "==", Value: "eu"}}},
		bruteGroups(model, func(_ string, a *account) bool { return a.Region == "eu" }, one, nil))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "count", Where: []muppet.QueryPred{{Field: "vip", Op: "==", Value: "true"}, {Field: "owner", Op: "contains", Value: "k1"}}},
		bruteGroups(model, func(k string, a *account) bool { return a.VIP && strings.Contains(a.Owner, "k1") }, one, nil))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "sum", By: "spent"}, bruteGroups(model, all, one, spent))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "min", By: "n", Prefix: "k1"},
		bruteGroups(model, func(k string, _ *account) bool { return strings.HasPrefix(k, "k1") }, one, func(a *account) float64 { return float64(a.N) }))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "max", By: "geo.lat"}, bruteGroups(model, all, one, func(a *account) float64 { return a.Geo.Lat }))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "sum", By: "spent", GroupBy: "region"}, bruteGroups(model, all, region, spent))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "count", GroupBy: "geo.zone", Where: []muppet.QueryPred{{Field: "n", Op: ">", Value: "2"}}},
		bruteGroups(model, func(_ string, a *account) bool { return a.N > 2 }, func(_ string, a *account) string { return a.Geo.Zone }, nil))
	sameGroups(muppet.QuerySpec{Updater: "U1", Agg: "count", GroupBy: "nope"}, map[string]muppet.QueryGroup{})

	// Top-k, key-grouped and grouped by a field: rank brute force's
	// groups by (sum descending, key ascending) and cut at k.
	for _, spec := range []muppet.QuerySpec{
		{Updater: "U1", Agg: "topk", By: "spent", K: 5},
		{Updater: "U1", Agg: "topk", By: "spent", GroupBy: "region", K: 2},
	} {
		group := func(k string, _ *account) string { return k }
		if spec.GroupBy != "" {
			group = region
		}
		var want []muppet.QueryGroup
		for _, g := range bruteGroups(model, all, group, spent) {
			want = append(want, g)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Sum != want[j].Sum {
				return want[i].Sum > want[j].Sum
			}
			return want[i].Key < want[j].Key
		})
		want = want[:min(spec.K, len(want))]
		if got := query(spec).Groups; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %+v:\n got %+v\nwant %+v", label, spec, got, want)
		}
	}

	// σ + π + limit: the first 7 keys in order, fields named in any
	// order and more than once, a missing one omitted.
	var keys []string
	for k, a := range model {
		if a.N >= 3 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	keys = keys[:min(7, len(keys))]
	rows := query(muppet.QuerySpec{Updater: "U1", Limit: 7, Fields: []string{"owner", "n", "geo.zone", "key", "nope", "n"},
		Where: []muppet.QueryPred{{Field: "n", Op: ">=", Value: "3"}}}).Rows
	if len(rows) != len(keys) {
		t.Fatalf("%s: limited scan returned %d rows, want %d", label, len(rows), len(keys))
	}
	for i, row := range rows {
		a := model[keys[i]]
		want := fmt.Sprintf(`{"geo.zone":%q,"key":%q,"n":%d,"owner":%q}`, a.Geo.Zone, keys[i], a.N, a.Owner)
		if row.Key != keys[i] || string(row.Value) != want {
			t.Fatalf("%s: scan row %d = %s %s, want %s %s", label, i, row.Key, row.Value, keys[i], want)
		}
	}
	// Whole-value rows are the slate's JSON view, keys sorted.
	for _, row := range query(muppet.QuerySpec{Updater: "U1"}).Rows {
		var tree any
		enc, _ := json.Marshal(model[row.Key])
		json.Unmarshal(enc, &tree)
		if want, _ := json.Marshal(tree); string(row.Value) != string(want) {
			t.Fatalf("%s: whole-value row %s = %s, want %s", label, row.Key, row.Value, want)
		}
	}
}

func TestPropertyStructQueryMatchesBruteForce(t *testing.T) {
	regions := []string{"eu", "us", "apac", "eu"}
	for _, tc := range []struct {
		name     string
		version  muppet.EngineVersion
		capacity int
	}{
		{"engine2/cache-only", muppet.EngineV2, 10_000},
		{"engine2/mixed", muppet.EngineV2, 8},
		{"engine2/store-only", muppet.EngineV2, 1},
		{"engine1/cache-only", muppet.EngineV1, 10_000},
		{"engine1/mixed", muppet.EngineV1, 8},
		{"engine1/store-only", muppet.EngineV1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := muppet.NewEngine(accountApp(), muppet.Config{
				Engine: tc.version, Machines: 3, QueueCapacity: 1 << 14, CacheCapacity: tc.capacity,
				// Write-through keeps the store exactly current, so what a
				// small cache evicts is read back whole.
				FlushPolicy: muppet.WriteThrough,
				Store:       muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1}),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Stop()
			rng := rand.New(rand.NewSource(7))
			model := make(map[string]*account)
			for round := 1; round <= 2; round++ {
				evs := make([]muppet.Event, 0, 400)
				for i := 0; i < 400; i++ {
					key := fmt.Sprintf("k%d", rng.Intn(60))
					// The region is the key's, not the event's: the engines do
					// not promise the order of one batch's events per key.
					p := purchase{Region: regions[len(key)*7%3+int(key[1]-'0')%2], Amount: float64(rng.Intn(40)) / 4}
					if model[key] == nil {
						model[key] = new(account)
					}
					model[key].apply(key, p)
					val, _ := json.Marshal(p)
					evs = append(evs, muppet.Event{Stream: "S1", TS: muppet.Timestamp(round*1000 + i), Key: key, Value: val})
				}
				if _, err := eng.IngestBatch(evs); err != nil {
					t.Fatal(err)
				}
				eng.Drain()
				checkAccountOracle(t, eng, model, fmt.Sprintf("round-%d", round))
			}
			if n := metric(t, eng, "muppet_slate_cache_evictions_total"); (tc.capacity < 10) != (n > 0) {
				t.Fatalf("capacity %d: %v evictions — the residency this case is named for did not happen", tc.capacity, n)
			}
		})
	}
}
