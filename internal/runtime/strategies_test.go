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
	"muppet/internal/wal"
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
// harder: a master failure broadcast (the path a remote peer's failed
// send triggers at any moment), a rejoin's worker restart, live
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

				// The master broadcast a remote sender would trigger, racing Stop.
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					e.Cluster().Master().ReportFailure("machine-01")
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

// TestCrashReplaysWALThroughRecoverySubsystem proves both versions ride
// one recovery code path: a flush batch sitting in a cell's
// group-commit WAL at crash time (appended, store write never landed)
// is replayed into the key-value store by CrashMachine, so the key's
// new owner reads it after the ring reroutes.
func TestCrashReplaysWALThroughRecoverySubsystem(t *testing.T) {
	u := core.UpdateFunc{FName: "U", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		n := 0
		if sl != nil {
			n, _ = strconv.Atoi(string(sl))
		}
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
	}}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 3})
			app := core.NewApp("recovery").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
			e, err := s.new(app, runtime.Config{
				Machines: 4, WorkersPerFunction: 4, ThreadsPerMachine: 2,
				Store: store, StoreLevel: kvstore.Quorum,
				// A far-future flush interval keeps slates dirty, so the
				// staged WAL batch is the only durable trace of flushed state.
				FlushPolicy: slate.Interval, FlushInterval: time.Hour,
				QueueCapacity: 1 << 15,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Stop()

			const victim = "machine-01"
			for i := 0; i < 800; i++ {
				e.Ingest(event.Event{Stream: "S1", TS: event.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%40)})
			}
			e.Drain()

			// Find a key a cell on the victim machine owns, and stage an
			// in-flight flush batch in that cell's WAL.
			stagedKey := ""
			for i := 0; i < 10_000 && stagedKey == ""; i++ {
				key := fmt.Sprintf("inflight-%d", i)
				if e.OwnerMachine("U", key) == victim {
					stagedKey = key
				}
			}
			if stagedKey == "" {
				t.Fatal("no key owned by the victim machine")
			}
			e.CacheOf("U", stagedKey).WAL().AppendBatch([]wal.SlateRecord{
				{Updater: "U", Key: stagedKey, Value: []byte("271828")},
			})

			lostQ, lostDirty := e.CrashMachine(victim)
			if lostDirty == 0 {
				t.Fatal("expected dirty slates on the crashed machine")
			}
			t.Logf("crash: %d queued, %d dirty lost", lostQ, lostDirty)

			// Force detection so the ring reroutes, then read through the
			// new owner: the WAL-replayed record is in the store.
			e.Cluster().Master().PingAll()
			if m := e.OwnerMachine("U", stagedKey); m == victim || m == "" {
				t.Fatalf("staged key still routes to %q", m)
			}
			if got := e.Slate("U", stagedKey); string(got) != "271828" {
				t.Fatalf("flushed record lost: got %q", got)
			}

			st := e.RecoveryStatus()
			if st.WALBatches != 1 || st.WALRecords != 1 {
				t.Fatalf("WAL replay counters = %d/%d, want 1/1", st.WALBatches, st.WALRecords)
			}
			if st.DirtyLost == 0 {
				t.Fatal("dirty loss not accounted in recovery status")
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
