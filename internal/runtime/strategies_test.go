package runtime_test

// Tests of behaviour the runtime owns, each run over both dispatch
// strategies: the code under test exists once, so one table-driven
// test replaces the copy each engine package used to carry.

import (
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/engine1"
	"muppet/internal/engine2"
	"muppet/internal/event"
	"muppet/internal/httpapi"
	"muppet/internal/kvstore"
	"muppet/internal/runtime"
	"muppet/internal/slate"
)

// strategies builds an engine of each Muppet version and hands back the
// runtime it embeds, which carries the whole shared API.
var strategies = []struct {
	name string
	new  func(app *core.App, cfg runtime.Config) (*runtime.Runtime, error)
}{
	{"engine1", func(app *core.App, cfg runtime.Config) (*runtime.Runtime, error) {
		e, err := engine1.New(app, cfg)
		if err != nil {
			return nil, err
		}
		return &e.Runtime, nil
	}},
	{"engine2", func(app *core.App, cfg runtime.Config) (*runtime.Runtime, error) {
		e, err := engine2.New(app, cfg)
		if err != nil {
			return nil, err
		}
		return &e.Runtime, nil
	}},
}

// counterApp mirrors Example 4: M1 extracts retailer keys, U1 counts
// per retailer and republishes on the declared output stream S3 (so a
// test can hold a live subscription across Stop).
func counterApp() *core.App {
	m1 := core.MapFunc{FName: "M1", Fn: func(emit core.Emitter, in event.Event) {
		if strings.HasPrefix(string(in.Value), "checkin:") {
			emit.Publish("S2", strings.TrimPrefix(string(in.Value), "checkin:"), in.Value)
		}
	}}
	u1 := core.UpdateFunc{FName: "U1", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		count := 0
		if sl != nil {
			count, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(count + 1)))
		emit.Publish("S3", in.Key, in.Value)
	}}
	return core.NewApp("counter").
		Input("S1").
		Output("S3").
		AddMap(m1, []string{"S1"}, []string{"S2"}).
		AddUpdate(u1, []string{"S2"}, []string{"S3"}, 0)
}

func checkin(i int, retailer string) event.Event {
	return event.Event{Stream: "S1", TS: event.Timestamp(i), Key: fmt.Sprintf("c%d", i), Value: []byte("checkin:" + retailer)}
}

func TestIngestBatchMatchesPerEventResults(t *testing.T) {
	retailers := []string{"walmart", "bestbuy", "jcpenney", "samsclub", "target"}
	cases := map[string]struct {
		cfg                      runtime.Config
		events, retailers, batch int
	}{
		"engine1": {runtime.Config{Machines: 3, WorkersPerFunction: 3}, 300, 3, 64},
		"engine2": {runtime.Config{Machines: 4, ThreadsPerMachine: 4}, 600, 5, 128},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			c := cases[s.name]
			per, err := s.new(counterApp(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer per.Stop()
			bat, err := s.new(counterApp(), c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bat.Stop()

			var evs []event.Event
			for i := 0; i < c.events; i++ {
				evs = append(evs, checkin(i+1, retailers[i%c.retailers]))
			}
			for _, ev := range evs {
				per.Ingest(ev)
			}
			for i := 0; i < len(evs); i += c.batch {
				end := min(i+c.batch, len(evs))
				if n, err := bat.IngestBatch(evs[i:end]); err != nil || n != end-i {
					t.Fatalf("batch accepted %d of %d, err=%v", n, end-i, err)
				}
			}
			per.Drain()
			bat.Drain()
			for _, r := range retailers[:c.retailers] {
				if p, b := string(per.Slate("U1", r)), string(bat.Slate("U1", r)); p != b {
					t.Fatalf("%s: per-event=%q batched=%q", r, p, b)
				}
			}
			ps, bs := per.Stats(), bat.Stats()
			if ps.Processed != bs.Processed || ps.Ingested != bs.Ingested || ps.Emitted != bs.Emitted {
				t.Fatalf("stats diverge: per=%+v batch=%+v", ps, bs)
			}
		})
	}
}

// Regression test for the Stop-window hazards the networked mode hits
// harder: a failure report (the path a remote peer's failed send
// triggers at any moment), a rejoin's worker restart, live
// subscribers, and ingestion all racing Stop. The failure modes this
// pins down are panics — send on a closed subscription channel, and
// wg.Add racing wg.Wait when a rejoin restarts a cell's loops while
// Stop is tearing them down (serialized by stopMu) — plus anything the
// race detector sees.
func TestStopRacesFailureBroadcastAndRejoin(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			for round := 0; round < 10; round++ {
				e, err := s.new(counterApp(), runtime.Config{
					Machines: 3, WorkersPerFunction: 2, ThreadsPerMachine: 2, QueueCapacity: 1 << 12,
				})
				if err != nil {
					t.Fatal(err)
				}
				start := make(chan struct{})
				var wg sync.WaitGroup

				// Ingestion keeps events in flight through the Stop window.
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < 500; i++ {
						if _, err := e.IngestBatch([]event.Event{checkin(i+1, "walmart")}); err != nil {
							return
						}
					}
				}()

				// A subscriber ranges until Stop closes its channel; Stop must
				// close it exactly once with no concurrent sends slipping through.
				wg.Add(1)
				go func() {
					defer wg.Done()
					sub := e.Subscribe("S3", 4)
					close(start)
					for range sub.C() {
					}
				}()

				// The failure report a remote sender would trigger, racing Stop.
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					e.Recovery().ReportFailure("machine-01")
				}()

				// A crash + rejoin cycle: the rejoin's RestartWorkers must not
				// wg.Add into a workgroup Stop is Waiting on.
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					e.CrashMachine("machine-02")
					e.RejoinMachine("machine-02")
				}()

				<-start
				e.Stop()
				wg.Wait()
			}
		})
	}
}

// parker parks the first update that runs after arm until the channel
// arm returned is closed, announcing itself on entered.
type parker struct {
	armed   atomic.Pointer[chan struct{}]
	entered chan struct{}
}

func (p *parker) arm() chan struct{} {
	c := make(chan struct{})
	p.armed.Store(&c)
	return c
}

// countApp is one updater U counting S1's events per key; every update
// first passes p.
func countApp(p *parker) *core.App {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		if c := p.armed.Swap(nil); c != nil {
			p.entered <- struct{}{}
			<-*c
		}
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	return core.NewApp("count").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// keyOwnedBy finds a key of fn that the ring routes to machine.
func keyOwnedBy(t *testing.T, e *runtime.Runtime, fn, machine string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		if key := fmt.Sprintf("k%d", i); e.OwnerMachine(fn, key) == machine {
			return key
		}
	}
	t.Fatalf("no key of %s routes to %s", fn, machine)
	return ""
}

// storedSlate reads <U, key> straight from the durable store.
func storedSlate(store *kvstore.Cluster, key string) string {
	v, _, _ := (&slate.KVStore{Cluster: store, Level: kvstore.Quorum}).Load(slate.Key{Updater: "U", Key: key})
	return string(v)
}

// gatedStore holds a slate store's multi-puts at a gate: the window in
// which a group commit has left the cache and is not in the store yet,
// held open.
type gatedStore struct {
	slate.Store
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedStore) SaveBatch(recs []slate.BatchRecord) error {
	g.entered <- struct{}{}
	<-g.gate
	return g.Store.SaveBatch(recs)
}

// TestCrashWaitsOutInFlightCommit: a machine killed while one of its
// group commits is in the store's hands returns from CrashMachine only
// once that commit is stored, so the key's new owner reads it after the
// ring reroutes.
func TestCrashWaitsOutInFlightCommit(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
			e, err := s.new(countApp(new(parker)), runtime.Config{
				Machines: 4, WorkersPerFunction: 4, ThreadsPerMachine: 2,
				Store: store, StoreLevel: kvstore.Quorum,
				// Only the test flushes.
				FlushPolicy: slate.Interval, FlushInterval: time.Hour,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			const victim = "machine-01"
			key := keyOwnedBy(t, e, "U", victim)
			gated := &gatedStore{entered: make(chan struct{}, 1), gate: make(chan struct{})}
			e.WrapStoreOf("U", key, func(st slate.Store) slate.Store {
				gated.Store = st
				return gated
			})
			for i := 0; i < 3; i++ {
				e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: key})
			}
			e.Drain()
			go e.CacheOf("U", key).FlushDirty()
			<-gated.entered // the commit carrying the count 3 is in flight
			time.AfterFunc(20*time.Millisecond, func() { close(gated.gate) })

			if _, lostDirty := e.CrashMachine(victim); lostDirty != 0 {
				t.Fatalf("crash lost %d dirty slates; the only one was in flight", lostDirty)
			}
			if got := storedSlate(store, key); got != "3" {
				t.Fatalf("store holds %q when CrashMachine returns, want the in-flight 3", got)
			}
			e.Recovery().PingAll()
			if m := e.OwnerMachine("U", key); m == victim || m == "" {
				t.Fatalf("key still routes to %q", m)
			}
			if got := e.Slate("U", key); string(got) != "3" {
				t.Fatalf("new owner reads %q, want 3", got)
			}
		})
	}
}

// TestStragglerCannotOverwriteNewOwner: an update the dead machine was
// still running when a detection-driven failover crashed its cache
// finishes into that dead cache, and must not write the dead machine's
// history over the row the key's new owner has stored since — neither
// through the dead cell's flusher nor through Stop's final flush.
func TestStragglerCannotOverwriteNewOwner(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
			p := &parker{entered: make(chan struct{}, 1)}
			e, err := s.new(countApp(p), runtime.Config{
				Machines: 3, WorkersPerFunction: 3, ThreadsPerMachine: 2,
				Store: store, StoreLevel: kvstore.Quorum,
				FlushPolicy: slate.Interval, FlushInterval: 5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			const victim = "machine-01"
			key := keyOwnedBy(t, e, "U", victim)
			ts := 0
			ingest := func(n int) {
				for range n {
					ts++
					e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(ts), Key: key})
				}
			}
			ingest(2)
			e.Drain()
			e.FlushSlates() // the store holds 2

			release := p.arm()
			ingest(1) // the victim's update parks; it will write 3
			<-p.entered
			e.Cluster().Crash(victim)
			ingest(1) // this send fails, and detection fails the victim over
			if m := e.OwnerMachine("U", key); m == victim || m == "" {
				t.Fatalf("key still routes to %q", m)
			}
			ingest(4) // the new owner counts on from the stored 2
			deadline := time.Now().Add(5 * time.Second)
			for string(e.Slate("U", key)) != "6" {
				if time.Now().After(deadline) {
					t.Fatalf("new owner reads %q, want 6", e.Slate("U", key))
				}
				time.Sleep(time.Millisecond)
			}
			e.FlushSlates() // the store holds 6

			close(release)
			e.Drain()
			e.Stop()
			if got := storedSlate(store, key); got != "6" {
				t.Fatalf("store holds %q after the straggler finished, want the new owner's 6", got)
			}
		})
	}
}

// One /metrics request reads each stats source once: every cache-shard
// lock is taken one time beside the workers, and the cache counters of
// one scrape come from one instant.
func TestScrapeReadsCacheStatsOnce(t *testing.T) {
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			e, err := s.new(counterApp(), runtime.Config{Machines: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			e.Ingest(checkin(1, "walmart"))
			e.Drain()
			reads := 0
			defer runtime.CountCacheStatsReads(&reads)()
			rr := httptest.NewRecorder()
			httpapi.Handler(e).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
			if rr.Code != 200 || !strings.Contains(rr.Body.String(), "muppet_slate_cache_misses_total 1\n") {
				t.Fatalf("GET /metrics: %d\n%s", rr.Code, rr.Body.String())
			}
			if reads != 1 {
				t.Fatalf("one /metrics request read the cache stats %d times, want 1", reads)
			}
		})
	}
}
