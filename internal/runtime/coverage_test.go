package runtime_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/query"
	"muppet/internal/runtime"
	"muppet/internal/slate"
)

// Query coverage: a node-local query skips its store pass while the
// machine's caches provably hold every stored slate it owns. These tests
// drive every event that can break that — evictions, deletes, a machine
// crash, failover and rejoin, a store node going down or coming back, a
// restart over the persisted store — and check each answer against a
// brute-force fold over cache ∪ store filtered by owner, and the skip
// itself against what the brute force says is covered.

var coverUpdaters = []string{"U1", "U2"}

// coverApp counts events per key in two updaters: an event's value names
// the updater it counts in ("U1", "U2") or "both".
func coverApp() *core.App {
	m := core.MapFunc{FName: "M", Fn: func(emit core.Emitter, in event.Event) {
		v := string(in.Value)
		if v != "U2" {
			emit.Publish("S1", in.Key, nil)
		}
		if v != "U1" {
			emit.Publish("S2", in.Key, nil)
		}
	}}
	counter := func(name string) core.UpdateFunc {
		return core.UpdateFunc{FName: name, Fn: func(emit core.Emitter, in event.Event, sl []byte) {
			n, _ := strconv.Atoi(string(sl))
			emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		}}
	}
	return core.NewApp("coverage").
		Input("S0").
		AddMap(m, []string{"S0"}, []string{"S1", "S2"}).
		AddUpdate(counter("U1"), []string{"S1"}, nil, 0).
		AddUpdate(counter("U2"), []string{"S2"}, nil, 0)
}

// coverModel is one engine under test, the store it persists to, and the
// brute-force view of what its queries must answer.
type coverModel struct {
	t     *testing.T
	new   func(*core.App, runtime.Config) (*runtime.Runtime, error)
	cfg   runtime.Config
	store *kvstore.Cluster
	r     *runtime.Runtime
	ts    int
	// handover is set while a test holds a rejoin's handover open: no
	// pass may skip the store then, covered or not.
	handover bool
	// shared is set while another engine writes the same store: check
	// then compares answers only, and the caller asserts no pass skipped.
	shared bool
}

func newCoverModel(t *testing.T, s int, capacity int) *coverModel {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
	m := &coverModel{t: t, new: strategies[s].new, store: store, cfg: runtime.Config{
		Machines:      3,
		QueueCapacity: 1 << 12,
		CacheCapacity: capacity,
		// One stripe keeps the capacity an exact LRU bound, and a flush
		// interval no test outlives leaves every store write to an
		// eviction or an explicit flush.
		SlateShards:   1,
		FlushPolicy:   slate.Interval,
		FlushInterval: time.Hour,
		Store:         store,
	}}
	m.start()
	t.Cleanup(func() { m.r.Stop() })
	return m
}

func (m *coverModel) start() {
	r, err := m.new(coverApp(), m.cfg)
	if err != nil {
		m.t.Fatal(err)
	}
	m.r = r
}

// restart stops the engine — which flushes its caches — and starts a
// fresh one over the same store.
func (m *coverModel) restart() {
	m.r.Stop()
	m.start()
}

// ingest counts each key once in the updater value names, and settles.
func (m *coverModel) ingest(value string, keys []string) {
	evs := make([]event.Event, len(keys))
	for i, k := range keys {
		m.ts++
		evs[i] = event.Event{Stream: "S0", TS: event.Timestamp(m.ts), Key: k, Value: []byte(value)}
	}
	if _, err := m.r.IngestBatch(evs); err != nil {
		m.t.Fatal(err)
	}
	m.r.Drain()
}

// inRing lists the machines the ring routes to: the scatter set.
func (m *coverModel) inRing() []string {
	var out []string
	for _, ms := range m.r.RecoveryStatus().Machines {
		if ms.InRing {
			out = append(out, ms.Name)
		}
	}
	return out
}

// bruteRows is what the updater's slates are, taken the slow way: every
// key any cache or the store holds, owned by a live ring member, valued
// by the owning cell's cache, else by the store.
func (m *coverModel) bruteRows(updater string) []query.InputRow {
	stored := m.r.StoredSlates(updater)
	keys := map[string]bool{}
	for k := range stored {
		keys[k] = true
	}
	for k := range m.r.Slates(updater) {
		keys[k] = true
	}
	var rows []query.InputRow
	for k := range keys {
		if m.r.OwnerMachine(updater, k) == "" {
			continue
		}
		v, ok := m.r.CacheOf(updater, k).Peek(slate.Key{Updater: updater, Key: k})
		if !ok || v == nil {
			if v, ok = stored[k]; !ok {
				continue
			}
		}
		rows = append(rows, query.InputRow{Key: k, Raw: v})
	}
	return rows
}

// coverable reports, per machine, whether its caches hold every stored
// slate of the updater it owns — when a full pass may set the record.
func (m *coverModel) coverable(updater string) map[string]bool {
	out := map[string]bool{}
	for _, name := range m.inRing() {
		out[name] = true
	}
	for k := range m.r.StoredSlates(updater) {
		owner := m.r.OwnerMachine(updater, k)
		if owner == "" {
			continue
		}
		if v, ok := m.r.CacheOf(updater, k).Peek(slate.Key{Updater: updater, Key: k}); !ok || v == nil {
			out[owner] = false
		}
	}
	return out
}

func (m *coverModel) skips() map[string]uint64 {
	out := map[string]uint64{}
	for _, name := range m.r.Cluster().MachineNames() {
		out[name] = m.r.SkippedStorePasses(name)
	}
	return out
}

// compare runs spec and checks answer and scan statistics against the
// brute force over the same rows.
func (m *coverModel) compare(label string, spec query.Spec) {
	m.t.Helper()
	got, err := m.r.Query(spec)
	if err != nil {
		m.t.Fatalf("%s: %+v: %v", label, spec, err)
	}
	if err := spec.Normalize(); err != nil {
		m.t.Fatal(err)
	}
	var rows []query.InputRow
	for _, row := range m.bruteRows(spec.Updater) {
		if spec.KeyInRange(row.Key) {
			rows = append(rows, row)
		}
	}
	want := query.Execute(&spec, nil, rows)
	gotJSON, _ := json.Marshal([]any{got.Rows, got.Groups})
	wantJSON, _ := json.Marshal([]any{want.Rows, want.Groups})
	if string(gotJSON) != string(wantJSON) {
		m.t.Fatalf("%s: %+v:\n got %s\nwant %s", label, spec, gotJSON, wantJSON)
	}
	gs, ws := got.Stats, want.Stats
	if gs.RowsScanned != ws.RowsScanned || gs.BytesScanned != ws.BytesScanned || gs.DecodeErrors != ws.DecodeErrors {
		m.t.Fatalf("%s: %+v: stats %+v, brute force %+v", label, spec, gs, ws)
	}
}

// check queries every updater after a step. fresh names the machines
// whose generation the step moved: their first full-range pass must not
// skip the store. The second full-range pass must skip it exactly on the
// machines the brute force finds covered — the first pass set their
// record, or kept it. It returns how many passes skipped.
func (m *coverModel) check(label string, fresh []string) int {
	m.t.Helper()
	skipped := 0
	for _, u := range coverUpdaters {
		covered := m.coverable(u)
		full := query.Spec{Updater: u, Agg: query.AggCount}
		before := m.skips()
		m.compare(label+"/first", full)
		after := m.skips()
		for _, name := range fresh {
			if after[name] != before[name] {
				m.t.Fatalf("%s: %s: %s skipped the store on its first pass after the step", label, u, name)
			}
		}
		m.compare(label+"/second", query.Spec{Updater: u, Agg: query.AggTopK, By: "n", K: 5})
		final := m.skips()
		for name, ok := range covered {
			if m.shared {
				break
			}
			want := uint64(0)
			if ok && !m.handover {
				want = 1
			}
			if got := final[name] - after[name]; got != want {
				m.t.Fatalf("%s: %s: %s skipped %d store passes on a second query, covered=%v", label, u, name, got, ok)
			}
			skipped += int(want)
		}
		for _, spec := range []query.Spec{
			{Updater: u},
			{Updater: u, Agg: query.AggSum, By: "n"},
			{Updater: u, Agg: query.AggCount, Prefix: "a"},
			{Updater: u, Agg: query.AggTopK, By: "n", K: 3, Start: "b", End: "b5"},
		} {
			m.compare(label, spec)
		}
	}
	return skipped
}

// keyRange is n keys of each of the two prefixes the prefix queries cut.
func keyRange(n int) []string {
	var keys []string
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("a%02d", i), fmt.Sprintf("b%02d", i))
	}
	return keys
}

// TestQueryCoverageMatchesBruteForce runs each event once in a fixed
// order — each after a state the brute force finds covered on every
// machine, but the rejoin, which follows the crash — and then a seeded
// random mix of them.
func TestQueryCoverageMatchesBruteForce(t *testing.T) {
	for s, strat := range strategies {
		t.Run(strat.name, func(t *testing.T) {
			// 24 working keys per updater fit every cell; a burst of
			// 3 × capacity new keys does not.
			capacity := map[string]int{"engine1": 30, "engine2": 60}[strat.name]
			m := newCoverModel(t, s, capacity)
			working := keyRange(12)
			all := m.r.Cluster().MachineNames()
			rng := rand.New(rand.NewSource(34))
			skipped := 0

			// settle touches every working key in both updaters, drops
			// what a burst left, and then expects every machine covered.
			burst := map[string][]string{}
			settle := func(label string) {
				t.Helper()
				for u, keys := range burst {
					for _, k := range keys {
						m.r.CacheOf(u, k).Delete(slate.Key{Updater: u, Key: k})
						if _, err := m.store.Delete(k, u, kvstore.One); err != nil {
							t.Fatal(err)
						}
					}
				}
				burst = map[string][]string{}
				m.ingest("both", working)
				m.r.FlushSlates()
				m.check(label, nil)
				for _, u := range coverUpdaters {
					for name, ok := range m.coverable(u) {
						if !ok {
							t.Fatalf("%s: %s not covered on %s after touching every key", label, u, name)
						}
					}
				}
			}
			evict := func(label string) {
				t.Helper()
				u := coverUpdaters[rng.Intn(2)]
				var keys []string
				for i := 0; i < 3*capacity; i++ {
					keys = append(keys, fmt.Sprintf("z%s-%03d", label, i))
				}
				burst[u] = append(burst[u], keys...)
				before := map[string]uint64{}
				for _, name := range all {
					before[name] = m.r.CacheEvictions(name)
				}
				m.ingest(u, keys)
				var evicted []string
				for _, name := range all {
					if m.r.CacheEvictions(name) != before[name] {
						evicted = append(evicted, name)
					}
				}
				if len(evicted) == 0 {
					t.Fatalf("%s: a burst of %d keys evicted nothing", label, len(keys))
				}
				m.check(label, evicted)
			}
			down := ""
			crash := func(label string) {
				t.Helper()
				down = all[rng.Intn(len(all))]
				m.r.CrashMachine(down)
				m.check(label+"/crashed", []string{down})
				// The next send to the dead machine detects it; the
				// failover takes it off the ring.
				deadline := time.Now().Add(10 * time.Second)
				for i := 0; m.r.RecoveryStatus().Failovers == 0; i++ {
					if time.Now().After(deadline) {
						t.Fatalf("%s: %s never failed over", label, down)
					}
					m.ts++
					m.r.Ingest(event.Event{Stream: "S0", TS: event.Timestamp(m.ts), Key: working[i%len(working)], Value: []byte("both")})
					time.Sleep(time.Millisecond)
				}
				m.r.Drain()
				m.check(label+"/failed-over", all)
			}
			rejoin := func(label string) {
				t.Helper()
				if _, err := m.r.RejoinMachine(down); err != nil {
					t.Fatal(err)
				}
				down = ""
				m.check(label, all)
			}
			node := func(label string) {
				t.Helper()
				name := m.store.Nodes()[rng.Intn(3)]
				m.store.KillNode(name)
				m.check(label+"/killed", all)
				m.ingest("both", working[:6])
				m.store.ReviveNode(name)
				m.check(label+"/revived", all)
			}
			restart := func(label string) {
				t.Helper()
				m.restart()
				down = ""
				m.check(label, all)
				// One updater warmed alone: its coverage says nothing
				// about the other's.
				m.ingest("U1", working)
				m.check(label+"/U1-warm", nil)
			}
			deleteOne := func(label string) {
				t.Helper()
				u, k := coverUpdaters[rng.Intn(2)], working[rng.Intn(len(working))]
				var fresh []string
				cache := m.r.CacheOf(u, k)
				if _, ok := cache.Peek(slate.Key{Updater: u, Key: k}); ok {
					fresh = append(fresh, m.r.OwnerMachine(u, k))
				}
				cache.Delete(slate.Key{Updater: u, Key: k})
				m.check(label, fresh)
			}

			settle("start")
			skipped += m.check("start/again", nil)
			for i, step := range []func(string){evict, deleteOne, crash, rejoin, node, restart} {
				label := fmt.Sprintf("scripted-%d", i)
				step(label)
				if down == "" {
					settle(label + "/settle")
				}
			}
			for i := 0; i < 16; i++ {
				label := fmt.Sprintf("random-%d", i)
				switch op := rng.Intn(7); {
				case op == 0:
					m.ingest("both", working[:1+rng.Intn(len(working))])
					m.check(label, nil)
				case op == 1:
					evict(label)
				case op == 2:
					deleteOne(label)
				case op == 3 && down == "":
					crash(label)
				case op == 3:
					rejoin(label)
				case op == 4:
					node(label)
				case op == 5:
					restart(label)
				default:
					m.r.FlushSlates()
					m.check(label, nil)
				}
				if down == "" && rng.Intn(2) == 0 {
					settle(label + "/settle")
				}
				skipped += m.check(label+"/again", nil)
			}
			if skipped == 0 {
				t.Fatal("no query ever skipped the store: the fast path went untested")
			}
		})
		// Two engines over one store, as the networked nodes of one
		// cluster may share it: the second writes keys the first's ring
		// routes to the first's own machines, which its caches never
		// held, and a ring change of the second's would be invisible to
		// the first. While both are attached the first never skips the
		// store, and every answer counts the second's keys; once the
		// second stops, the first skips again only where its caches
		// cover those keys.
		t.Run(strat.name+"/shared-store", func(t *testing.T) {
			m := newCoverModel(t, s, 1000)
			other, err := strat.new(coverApp(), m.cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(other.Stop)
			m.shared = true
			m.ingest("both", keyRange(12))
			m.r.FlushSlates()
			m.check("shared/own", nil)
			m.check("shared/own/again", nil)
			var theirs []event.Event
			for i := 0; i < 24; i++ {
				m.ts++
				theirs = append(theirs, event.Event{Stream: "S0", TS: event.Timestamp(m.ts), Key: fmt.Sprintf("o%02d", i), Value: []byte("both")})
			}
			if _, err := other.IngestBatch(theirs); err != nil {
				t.Fatal(err)
			}
			other.Drain()
			other.FlushSlates()
			m.check("shared/theirs", nil)
			for name, n := range m.skips() {
				if n != 0 {
					t.Fatalf("%s skipped %d store passes while another engine shared the store", name, n)
				}
			}
			other.Stop()
			m.shared = false
			m.check("shared/detached", nil)
			var keys []string
			for _, ev := range theirs {
				keys = append(keys, ev.Key)
			}
			m.ingest("both", keys)
			m.r.FlushSlates()
			if m.check("shared/covered", nil) == 0 {
				t.Fatal("no pass skipped the store once the other engine had stopped")
			}
		})
	}
}

// Every top-k after a system's first skips the store pass on every
// machine: ingest — new keys among them — flushes it too, and no slate
// leaves a cache.
func TestTopKAfterTheFirstSkipsTheStore(t *testing.T) {
	for s, strat := range strategies {
		t.Run(strat.name, func(t *testing.T) {
			m := newCoverModel(t, s, 1000)
			m.ingest("both", keyRange(20))
			spec := query.Spec{Updater: "U1", Agg: query.AggTopK, By: "n", K: 10}
			for i := 0; i < 6; i++ {
				before := m.skips()
				m.compare(fmt.Sprintf("topk-%d", i), spec)
				after := m.skips()
				for _, name := range m.inRing() {
					if got, want := after[name]-before[name], uint64(min(i, 1)); got != want {
						t.Fatalf("top-k %d: %s skipped %d store passes, want %d", i, name, got, want)
					}
				}
				m.ingest("both", keyRange(20+5*i))
				m.r.FlushSlates()
			}
		})
	}
}

// The route memo is a hash, not an owner: entries whose memo a query
// warmed are judged against the ring as it stands. Take a machine off
// the ring, let the interim owners cache its keys and warm their memos,
// then put it back: the interim owners' copies are no longer theirs, and
// the next query counts each key once — before DropMisplacedSlates
// evicts them, and after.
func TestRouteMemoFollowsRingChanges(t *testing.T) {
	for s, strat := range strategies {
		t.Run(strat.name, func(t *testing.T) {
			m := newCoverModel(t, s, 1000)
			keys := keyRange(20)
			m.ingest("both", keys)
			m.check("warm", nil)
			victim := m.r.OwnerMachine("U1", keys[0])
			var moved []string
			for _, k := range keys {
				if m.r.OwnerMachine("U1", k) == victim {
					moved = append(moved, k)
				}
			}
			m.r.FlushSlates()
			m.r.RemoveFromRing(victim)
			m.check("off-ring", m.r.Cluster().MachineNames())
			m.ingest("both", keys)
			m.check("interim", nil)
			for _, k := range moved {
				if _, ok := m.r.CacheOf("U1", k).Peek(slate.Key{Updater: "U1", Key: k}); !ok {
					t.Fatalf("interim owner of %s does not cache it", k)
				}
			}
			m.r.RestoreToRing(victim)
			m.handover = true
			m.check("restored", m.r.Cluster().MachineNames())
			m.r.DropMisplacedSlates()
			m.handover = false
			m.check("dropped", m.r.Cluster().MachineNames())
			for _, u := range coverUpdaters {
				got, err := m.r.Query(query.Spec{Updater: u, Agg: query.AggCount})
				if err != nil {
					t.Fatal(err)
				}
				if n := got.Groups[0].Count; n != uint64(len(keys)) {
					t.Fatalf("%s: count %d after the handover, want each of %d keys once", u, n, len(keys))
				}
			}
			if !reflect.DeepEqual(m.inRing(), m.r.Cluster().MachineNames()) {
				t.Fatalf("ring %v after the restore", m.inRing())
			}
		})
	}
}

// A DropMisplacedSlates that cannot flush keeps the misplaced entries
// and leaves the rejoin's handover open, so no pass skips the store. The
// next rejoin's DropMisplacedSlates that succeeds closes both handovers,
// and passes skip again where the caches cover the store.
func TestFailedHandoverClosesOnTheNextRejoin(t *testing.T) {
	for s, strat := range strategies {
		t.Run(strat.name, func(t *testing.T) {
			m := newCoverModel(t, s, 1000)
			all := m.r.Cluster().MachineNames()
			keys := keyRange(20)
			m.ingest("both", keys)
			m.r.FlushSlates()
			victim := m.r.OwnerMachine("U1", keys[0])
			m.r.RemoveFromRing(victim)
			// The interim owners cache the victim's keys dirty: the
			// flush interval outlives the test.
			m.ingest("both", keys)
			for _, name := range m.store.Nodes() {
				m.store.KillNode(name)
			}
			m.r.RestoreToRing(victim)
			m.r.DropMisplacedSlates()
			for _, name := range m.store.Nodes() {
				m.store.ReviveNode(name)
			}
			m.handover = true
			m.check("kept", all)
			m.check("kept/again", nil)
			m.r.RemoveFromRing(victim)
			m.r.RestoreToRing(victim)
			m.r.DropMisplacedSlates()
			m.handover = false
			m.check("handed-over", all)
			if m.check("handed-over/again", nil) == 0 {
				t.Fatal("no pass skipped the store after the handover closed")
			}
		})
	}
}
