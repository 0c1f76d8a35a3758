package experiments

import (
	"fmt"
	"os"
	"time"

	"muppet"
	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/microbatch"
	"muppet/internal/obs"
	"muppet/internal/recovery"
	"muppet/muppetapps"
)

// E12Failure reproduces the §4.3 failure-handling argument: because a
// worker contacts its peers constantly, a dead machine is detected on
// the first failed send and dropped from the ring — far faster than
// the MapReduce-style periodic ping the paper rejects. The event that
// hit the dead machine is lost, along with the machine's queued events
// and unflushed slates, and the key reroutes to a live worker.
func E12Failure(s Scale) Table {
	t := Table{
		ID:     "E12",
		Title:  "machine failure: detection latency and losses",
		Claim:  "detect-on-send + master broadcast recovers in a timely fashion; queued events are lost, not replayed (§4.3)",
		Header: []string{"detection", "detect latency", "events lost", "dirty slates lost", "post-failover slates OK"},
	}
	n := s.N(30_000)

	// Detect-on-send (Muppet).
	{
		store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
		eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
			Machines: 8, Store: store, StoreLevel: muppet.Quorum,
			FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 16,
		})
		if err != nil {
			panic(err)
		}
		events := checkins(12, n)
		half := len(events) / 2
		ingest(eng, events[:half])
		const victim = "machine-03"
		crashAt := time.Now()
		lostQ, lostDirty := eng.CrashMachine(victim)
		// Keep streaming; the first send to the dead machine triggers
		// detection and the ring reroutes.
		for _, ev := range events[half:] {
			eng.Ingest(ev)
		}
		eng.Drain()
		detect := time.Duration(-1)
		if at, ok := recoveryOf(eng).DetectionTime(victim); ok {
			detect = at.Sub(crashAt)
		}
		st := eng.Stats()
		// After failover, counting continues on new owners: totals must
		// equal ingested recognized checkins minus the lost deliveries.
		ok := st.SlateUpdates > 0 && st.LostMachineDown > 0
		t.Add("on-send (Muppet)", detect, st.LostMachineDown+uint64(lostQ), lostDirty, ok)
		eng.Stop()
	}

	// Periodic ping (the MapReduce-style baseline the paper rejects).
	for _, interval := range []time.Duration{time.Second, 10 * time.Second} {
		// The expected detection latency of a ping loop is half its
		// interval; we simulate the crash landing uniformly in the
		// window by reporting interval/2 and verify PingAll finds it.
		eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
			Machines: 8, QueueCapacity: 1 << 16,
		})
		if err != nil {
			panic(err)
		}
		eng.CrashMachine("machine-05")
		newly := recoveryOf(eng).PingAll()
		found := len(newly) == 1 && newly[0] == "machine-05"
		t.Add(fmt.Sprintf("ping every %v", interval), interval/2, "(same loss model)", "-", found)
		eng.Stop()
	}
	t.Note("on-send detection is bounded by the inter-event gap (microseconds here, milliseconds in production), not a ping period")
	return t
}

// recoveryOf is the engine's recovery manager, the node's failure
// authority.
func recoveryOf(eng muppet.Engine) *recovery.Manager {
	return eng.(interface{ Recovery() *recovery.Manager }).Recovery()
}

// E13Overflow reproduces the §4.3/§5 queue-overflow mechanisms: drop
// (and log), divert to a degraded-service overflow stream, and source
// throttling, on an updater driven past its capacity.
func E13Overflow(s Scale) Table {
	t := Table{
		ID:     "E13",
		Title:  "queue overflow mechanisms on an overdriven updater",
		Claim:  "overflow can drop, divert to degraded service, or slow the source (§4.3, §5)",
		Header: []string{"policy", "offered", "processed full", "processed degraded", "lost", "elapsed"},
	}
	n := s.N(4_000)
	type variant struct {
		name   string
		policy muppet.OverflowPolicy
	}
	for _, v := range []variant{
		{"drop + log", muppet.DropOverflow},
		{"overflow stream", muppet.DivertOverflow},
		{"source throttling", muppet.BlockOverflow},
	} {
		slow := muppet.Update[int]("U_full", func(emit muppet.Emitter, in muppet.Event, n *int) {
			time.Sleep(200 * time.Microsecond) // expensive main-path operator
			*n++
		})
		cheap := muppetapps.Counting("U_degraded")
		app := muppet.NewApp("overflow").
			Input("S1", "S_ovf").
			AddUpdate(slow, []string{"S1"}, nil, 0).
			AddUpdate(cheap, []string{"S_ovf"}, nil, 0)
		// Muppet 1.0 (the §4.3 setting): each function has its own
		// worker and queue, so the degraded-service pipeline has its
		// own capacity even while the main pipeline's queue is full. A
		// single worker with a small queue keeps the 200µs operator
		// genuinely overdriven at any scale.
		eng, err := muppet.NewEngine(app, muppet.Config{
			Engine:   muppet.EngineV1,
			Machines: 1, WorkersPerFunction: 1,
			QueueCapacity: 16, QueuePolicy: v.policy,
			OverflowStream: "S_ovf",
		})
		if err != nil {
			panic(err)
		}
		gen := genFor(13)
		events := gen.KeyedEvents("S1", n, 50)
		elapsed := ingest(eng, events)
		full := 0
		for _, sl := range eng.Slates("U_full") {
			full += muppetapps.Count(sl)
		}
		degraded := 0
		for _, sl := range eng.Slates("U_degraded") {
			degraded += muppetapps.Count(sl)
		}
		st := eng.Stats()
		t.Add(v.name, n, full, degraded, st.LostOverflow, elapsed)
		eng.Stop()
	}
	t.Note("drop sacrifices events for latency; divert keeps a cheap answer for every event; throttling loses nothing but slows the source")
	return t
}

// E14Retailer validates the Figure 1b workflow end-to-end against the
// reference executor: the distributed engines' counts must equal the
// canonical sequential execution's (the well-definedness of §3).
func E14Retailer(s Scale) Table {
	t := Table{
		ID:     "E14",
		Title:  "retailer counting vs the canonical reference execution",
		Claim:  "a deterministic MapUpdate application is well-defined (§3); engines approximate it",
		Header: []string{"engine", "events", "retailers", "counts equal reference"},
	}
	n := s.N(20_000)
	events := checkins(14, n)
	// Reference run.
	ref := core.NewReference(refRetailerApp())
	coreEvents := make([]event.Event, len(events))
	copy(coreEvents, events)
	if err := ref.Process(coreEvents); err != nil {
		panic(err)
	}
	want := ref.Slates("U1")
	for _, v := range []struct {
		name string
		cfg  muppet.Config
	}{
		{"1.0", muppet.Config{Engine: muppet.EngineV1, Machines: 4, QueueCapacity: 1 << 16}},
		{"2.0", muppet.Config{Engine: muppet.EngineV2, Machines: 4, QueueCapacity: 1 << 16}},
	} {
		eng, err := muppet.NewEngine(muppetapps.RetailerApp(), v.cfg)
		if err != nil {
			panic(err)
		}
		ingest(eng, events)
		equal := true
		for key, wantSl := range want {
			if string(eng.Slate("U1", key)) != string(wantSl) {
				equal = false
			}
		}
		t.Add(v.name, n, len(want), equal)
		eng.Stop()
	}
	return t
}

// refRetailerApp rebuilds the retailer app on core types for the
// reference executor (the public App is an alias, so this is the same
// graph).
func refRetailerApp() *core.App { return muppetapps.RetailerApp() }

// E15HotTopics validates the Figure 1c workflow: a planted hot topic
// must be detected, uniform traffic must stay quiet, and the engine
// must agree with the reference execution on the detected set.
func E15HotTopics(s Scale) Table {
	t := Table{
		ID:     "E15",
		Title:  "hot-topic detection (Fig. 1c) on planted bursts",
		Claim:  "the three-stage workflow reports <topic, minute> pairs whose count exceeds a multiple of the topic's average (Ex. 5)",
		Header: []string{"workload", "tweets", "burst detected", "false verdicts"},
	}
	n := s.N(12_000)
	for _, w := range []struct {
		name  string
		hot   string
		boost int
	}{
		{"planted burst (tech@min3)", "tech", 30},
		{"uniform traffic", "", 0},
	} {
		gen := muppetapps.NewGenerator(muppetapps.GenConfig{
			Seed: 15, EventsPerSecond: 10,
			HotTopic: w.hot, HotFromMinute: 3, HotToMinute: 4, HotBoost: w.boost,
		})
		events := gen.Tweets("S1", n)
		eng, err := muppet.NewEngine(
			muppetapps.HotTopicsApp(muppetapps.HotTopicsConfig{Threshold: 3, MinCount: 20}),
			muppet.Config{Machines: 4, QueueCapacity: 1 << 16},
		)
		if err != nil {
			panic(err)
		}
		hot := muppetapps.WatchHotVerdicts(eng)
		ingest(eng, events)
		verdicts := hot()
		detected := verdicts[muppetapps.TopicMinuteKey("tech", 3)]
		falseV := len(verdicts)
		if detected {
			falseV--
		}
		t.Add(w.name, n, detected, falseV)
		eng.Stop()
	}
	return t
}

// E16VsMicroBatch reproduces the paper's core latency argument (§2,
// §6): MapUpdate processes each event as it arrives, while a
// MapReduce-Online-style micro-batch system cannot produce an event's
// result until its batch closes, so its result latency is half the
// batch interval on average — orders of magnitude above Muppet's.
func E16VsMicroBatch(s Scale) Table {
	t := Table{
		ID:     "E16",
		Title:  "per-event result latency: MapUpdate vs micro-batch MapReduce",
		Claim:  "slates let updaters process each event immediately, streaming with millisecond-to-second latencies (§6)",
		Header: []string{"system", "mean latency", "p99 latency", "counts exact"},
	}
	n := s.N(30_000)
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 16, EventsPerSecond: 1000})
	events := gen.KeyedEvents("S1", n, 500)
	want := map[string]int{}
	for _, ev := range events {
		want[ev.Key]++
	}

	// Muppet 2.0: measured wall-clock ingress->slate-update latency.
	eng, err := muppet.NewEngine(counterOnlyApp(), muppet.Config{Machines: 4, QueueCapacity: 1 << 16})
	if err != nil {
		panic(err)
	}
	ingest(eng, events)
	h := latency(eng)
	exact := true
	for k, w := range want {
		if muppetapps.Count(eng.Slate("U", k)) != w {
			exact = false
		}
	}
	t.Add("Muppet 2.0 (measured)", obs.Duration(h.Sum)/time.Duration(h.Count), obs.Duration(h.Quantile(0.99)), exact)
	eng.Stop()

	// Micro-batch baseline: result latency is stream time to batch
	// close (the processing itself is free in comparison).
	for _, batch := range []time.Duration{time.Second, 10 * time.Second, time.Minute} {
		mb := microbatch.New(microbatch.Config{
			BatchInterval: batch,
			Map: func(e event.Event) []microbatch.KV {
				return []microbatch.KV{{Key: e.Key, Value: []byte("1")}}
			},
			Reduce: func(key string, values [][]byte, prev []byte) []byte {
				n := 0
				if prev != nil {
					fmt.Sscanf(string(prev), "%d", &n)
				}
				return []byte(fmt.Sprintf("%d", n+len(values)))
			},
		})
		mb.Run(events)
		mexact := true
		for k, w := range want {
			got := 0
			fmt.Sscanf(string(mb.Result(k)), "%d", &got)
			if got != w {
				mexact = false
			}
		}
		lh := mb.Latency().Snapshot()
		t.Add(fmt.Sprintf("micro-batch %v", batch), lh.Mean(), lh.P99, mexact)
	}
	t.Note("both compute the same counts; only MapUpdate has them continuously fresh")
	return t
}

// E17SlateSize reproduces the §5 advice to keep slates small (many
// kilobytes, not megabytes): update cost and store traffic grow with
// slate size because every update rewrites the whole slate. The store
// is a real durable LSM node in a temporary directory with a memtable
// budget deliberately smaller than the largest slate tier, so the big
// rows demonstrably spill to segment files (real fsyncs and disk
// bytes, not the simulated cost model).
func E17SlateSize(s Scale) Table {
	t := Table{
		ID:     "E17",
		Title:  "updater throughput vs slate size (durable LSM store)",
		Claim:  "updaters that maintain large slates run more slowly; keep slates KBs not MBs (§5)",
		Header: []string{"slate size", "events", "events/s", "segments", "disk bytes written"},
	}
	n := s.N(4_000)
	for _, size := range []int{100, 1 << 10, 10 << 10, 100 << 10, 1 << 20} {
		dir, err := os.MkdirTemp("", "muppet-e17-")
		if err != nil {
			panic(err)
		}
		store, err := muppet.OpenStore(muppet.StoreConfig{
			Nodes: 1, ReplicationFactor: 1,
			Dir: dir, MemtableFlushBytes: 256 << 10,
		})
		if err != nil {
			panic(err)
		}
		pad := make([]byte, size)
		for i := range pad {
			pad[i] = byte('a' + i%23)
		}
		// The raw-bytes codec: the application keeps full control of
		// the encoding (a counter line followed by size bytes of
		// state) and rewrites it wholesale per update, as a profile
		// slate would.
		u := muppet.UpdateWith[[]byte]("U", muppet.RawCodec{}, func(emit muppet.Emitter, in muppet.Event, sl *[]byte) {
			c := 0
			if len(*sl) > 0 {
				fmt.Sscanf(string(*sl), "%d", &c)
			}
			*sl = append([]byte(fmt.Sprintf("%d\n", c+1)), pad...)
		})
		app := muppet.NewApp("big-slates").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
		eng, err := muppet.NewEngine(app, muppet.Config{
			Machines: 2, Store: store, StoreLevel: muppet.One,
			FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 16,
		})
		if err != nil {
			panic(err)
		}
		events := keyedEvents(17, n, 200)
		elapsed := ingest(eng, events)
		st := store.Cluster().TotalStats()
		t.Add(sizeName(size), n, rate(n, elapsed), st.SSTables, st.DiskBytesWritten)
		eng.Stop()
		if err := store.Close(); err != nil {
			panic(err)
		}
		os.RemoveAll(dir)
	}
	t.Note("memtable budget is 256KB: the 1MB tier cannot even hold one slate in memory and must flush to segments")
	return t
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}
