package muppet_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"muppet"
	"muppet/internal/engine"
)

// Block-policy liveness: throttling inside a workflow deadlocks (§4.3,
// §5 — only sources may be slowed), so under BlockOverflow a worker's
// own emits must never wait on a full queue — the queue may be its own.
// Each case puts machines with a one- or two-slot queue behind a
// workflow that feeds itself; a worker that waited would park on its own
// notFull forever — or, across nodes, on a peer's, whose worker is
// parked on its outbox back.

// selfFeedingApp's updater republishes every event to its own input
// stream until the hop count in the value runs out.
func selfFeedingApp() *muppet.App {
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n, _ := strconv.Atoi(string(sl))
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		if hops, _ := strconv.Atoi(string(in.Value)); hops > 0 {
			emit.Publish("S2", in.Key, []byte(strconv.Itoa(hops-1)))
		}
	}}
	return muppet.NewApp("selffeed").Input("S1").
		AddUpdate(u, []string{"S1", "S2"}, []string{"S2"}, 0)
}

// cycleApp is a two-function loop: M1 forwards S1 and S3 onto S2, U1
// counts S2 and publishes back onto S3 while hops remain.
func cycleApp() *muppet.App {
	m := muppet.MapFunc{FName: "M1", Fn: func(emit muppet.Emitter, in muppet.Event) {
		emit.Publish("S2", in.Key, in.Value)
	}}
	u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
		n, _ := strconv.Atoi(string(sl))
		emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		if hops, _ := strconv.Atoi(string(in.Value)); hops > 0 {
			emit.Publish("S3", in.Key, []byte(strconv.Itoa(hops-1)))
		}
	}}
	return muppet.NewApp("cycle").Input("S1").
		AddMap(m, []string{"S1", "S3"}, []string{"S2"}).
		AddUpdate(u, []string{"S2"}, []string{"S3"}, 0)
}

func TestBlockPolicyWorkerEmitsNeverDeadlock(t *testing.T) {
	const events = 2000
	for _, tc := range []struct {
		name    string
		version muppet.EngineVersion
		app     func() *muppet.App
	}{
		{"engine2/self", muppet.EngineV2, selfFeedingApp},
		{"engine2/cycle", muppet.EngineV2, cycleApp},
		{"engine1/self", muppet.EngineV1, selfFeedingApp},
		{"engine1/cycle", muppet.EngineV1, cycleApp},
	} {
		for _, capacity := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/cap%d", tc.name, capacity), func(t *testing.T) {
				eng, err := muppet.NewEngine(tc.app(), muppet.Config{
					Engine:        tc.version,
					Machines:      1,
					QueueCapacity: capacity,
					QueuePolicy:   muppet.BlockOverflow,
				})
				if err != nil {
					t.Fatal(err)
				}
				done := make(chan struct{})
				go func() {
					defer close(done)
					for i := 0; i < events; i++ {
						eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%4), Value: []byte("3")})
					}
					eng.Drain()
				}()
				select {
				case <-done:
				case <-time.After(5 * time.Second):
					// Not stopped: Stop would wait on the same deadlock.
					t.Fatalf("workflow did not drain within 5s (%d of %d ingested): a worker is waiting on a full queue", eng.Stats().Ingested, events)
				}
				defer eng.Stop()

				// Sources were slowed, never dropped; every worker emit
				// either landed or took the Drop disposition, logged.
				st := eng.Stats()
				if st.Ingested != events {
					t.Fatalf("ingested %d of %d", st.Ingested, events)
				}
				if st.Processed != st.Emitted {
					t.Fatalf("processed %d of %d accepted deliveries", st.Processed, st.Emitted)
				}
				logged := eng.LostEvents().Totals()
				if got := logged[engine.LossOverflow.String()]; got != st.LostOverflow || eng.LostEvents().Total() != st.LostOverflow {
					t.Fatalf("lost log %v does not match %d overflow drops", logged, st.LostOverflow)
				}
			})
		}
	}
}

// TestBlockPolicyCrossNodeNeverDeadlocks is the same property one hop
// further out: over TCP a worker's emit rides an outbox, and the frame
// that carries it must not wait on the peer's full queue (whose worker
// may be waiting on its own outbox back). The no-wait mark crosses the
// wire, the peer rejects, and the sender logs the overflow — nothing may
// escape through the 10 s I/O timeout as a transient-network loss.
func TestBlockPolicyCrossNodeNeverDeadlocks(t *testing.T) {
	const events, keys = 4000, 64
	for _, version := range []muppet.EngineVersion{muppet.EngineV2, muppet.EngineV1} {
		for _, members := range [][]string{
			{"machine-00", "machine-01"},
			{"machine-00", "machine-01", "machine-02"},
		} {
			for _, capacity := range []int{1, 2} {
				t.Run(fmt.Sprintf("engine%d/%dnodes/cap%d", version, len(members), capacity), func(t *testing.T) {
					nodes := bindNodes(t, members, func(_ string, nc *muppet.NetworkConfig) (muppet.Engine, error) {
						return muppet.NewEngine(cycleApp(), muppet.Config{
							Engine:        version,
							QueueCapacity: capacity,
							QueuePolicy:   muppet.BlockOverflow,
							Network:       nc,
						})
					})
					ingested := func() (n uint64) {
						for _, eng := range nodes {
							n += eng.Stats().Ingested
						}
						return n
					}
					done := make(chan struct{})
					go func() {
						defer close(done)
						for i := 0; i < events; i++ {
							nodes[i%len(nodes)].Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("k%d", i%keys), Value: []byte("3")})
						}
						// An emit can cross every node and come back.
						for pass := 0; pass <= len(nodes); pass++ {
							for _, eng := range nodes {
								eng.Drain()
							}
						}
					}()
					select {
					case <-done:
					case <-time.After(5 * time.Second):
						// Not stopped: Stop would wait on the same deadlock.
						t.Fatalf("cluster did not drain within 5s (%d of %d ingested): a frame is waiting on a full queue", ingested(), events)
					}
					var processed, emitted uint64
					for i, eng := range nodes {
						defer eng.Stop()
						st := eng.Stats()
						processed, emitted = processed+st.Processed, emitted+st.Emitted
						logged := eng.LostEvents().Totals()
						if got := logged[engine.LossOverflow.String()]; got != st.LostOverflow || eng.LostEvents().Total() != st.LostOverflow {
							t.Fatalf("%s: lost log %v does not match %d overflow drops", members[i], logged, st.LostOverflow)
						}
					}
					// Sources were slowed, never dropped; every worker emit
					// either landed somewhere or was logged as overflow.
					if ingested() != events {
						t.Fatalf("ingested %d of %d", ingested(), events)
					}
					if processed != emitted {
						t.Fatalf("processed %d of %d accepted deliveries", processed, emitted)
					}
				})
			}
		}
	}
}

// TestBlockPolicySourceWaitsInItsOwnProcess: under Block a source frame
// never parks on a peer's queue. Both kinds of source — IngestBatch and
// fire-and-forget Ingest — wait at home and resend, so the connection
// they share with Query and the outbox stays free while a slow updater
// on the peer keeps its queue full, and once the updater moves again
// every event lands.
func TestBlockPolicySourceWaitsInItsOwnProcess(t *testing.T) {
	release := make(chan struct{})
	parkedApp := func() *muppet.App {
		u := muppet.UpdateFunc{FName: "U1", Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
			<-release
			n, _ := strconv.Atoi(string(sl))
			emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		}}
		return muppet.NewApp("parked").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
	}
	members := []string{"machine-00", "machine-01"}
	nodes := bindNodes(t, members, func(_ string, nc *muppet.NetworkConfig) (muppet.Engine, error) {
		return muppet.NewEngine(parkedApp(), muppet.Config{
			ThreadsPerMachine: 1,
			QueueCapacity:     1,
			QueuePolicy:       muppet.BlockOverflow,
			Network:           nc,
		})
	})
	for _, eng := range nodes {
		defer eng.Stop()
	}
	var once sync.Once
	unpark := func() { once.Do(func() { close(release) }) }
	defer unpark()

	ring := nodes[0].(interface{ MachineFor(fn, key string) string })
	key := "k0"
	for i := 1; ring.MachineFor("U1", key) != "machine-01"; i++ {
		key = fmt.Sprintf("k%d", i)
	}
	// Each source offers more events than the updater and its queue hold.
	const perSource = 4
	evs := make([]muppet.Event, 2*perSource)
	for i := range evs {
		evs[i] = muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: key}
	}
	ingested := make(chan error, 1)
	go func() {
		_, err := nodes[0].IngestBatch(evs[:perSource])
		ingested <- err
	}()
	fired := make(chan struct{})
	go func() {
		defer close(fired)
		for _, ev := range evs[perSource:] {
			nodes[0].Ingest(ev)
		}
	}()
	// The updater holds one event and its queue the next: both sources
	// are waiting on the rest.
	for deadline := time.Now().Add(5 * time.Second); nodes[1].LargestQueues()["machine-01"] < 1; {
		if time.Now().After(deadline) {
			t.Fatal("machine-01's queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	answered := make(chan error, 1)
	go func() {
		_, err := nodes[0].Query(muppet.QuerySpec{Updater: "U1", Agg: "count"})
		answered <- err
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Fatalf("query: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Query blocked for 1s behind a source frame parked on a peer's full queue")
	}
	select {
	case <-ingested:
		t.Fatal("IngestBatch returned while the peer's queue was full")
	case <-fired:
		t.Fatal("Ingest returned while the peer's queue was full")
	default:
	}

	unpark()
	deadline := time.After(5 * time.Second)
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatalf("IngestBatch: %v", err)
		}
	case <-deadline:
		t.Fatal("IngestBatch still waiting 5s after the updater was released")
	}
	select {
	case <-fired:
	case <-deadline:
		t.Fatal("Ingest still waiting 5s after the updater was released")
	}
	for _, eng := range nodes {
		eng.Drain()
	}
	if got, want := string(nodes[1].Slate("U1", key)), strconv.Itoa(len(evs)); got != want {
		t.Fatalf("slate = %q, want %s applied events", got, want)
	}
	for i, eng := range nodes {
		if n := eng.LostEvents().Total(); n != 0 {
			t.Fatalf("%s lost %d events: %v", members[i], n, eng.LostEvents().Totals())
		}
	}
}
