package experiments

import (
	"errors"
	"fmt"
	"time"

	"muppet"
	"muppet/internal/clock"
	"muppet/internal/kvstore"
	"muppet/internal/lsm"
	"muppet/muppetapps"
)

// E08SSDvsHDD reproduces the §4.2 argument for running the slate store
// on SSDs: warming an empty slate cache triggers a burst of random
// row fetches, and compactions consume additional I/O capacity; a
// spinning disk's per-seek cost makes both far more expensive. One LSM
// engine runs the workload and counts its real I/O: the segment reads
// and bytes of the cold fetches, the bytes a full compaction reads and
// writes. Each device profile turns those counts into busy time.
func E08SSDvsHDD(s Scale) Table {
	t := Table{
		ID:     "E08",
		Title:  "slate store on SSD vs HDD: cold reads and compaction",
		Claim:  "SSDs sustain cold-cache row fetches and compaction I/O; disks do not (§4.2)",
		Header: []string{"device", "rows", "cold reads", "read busy-time", "per-read", "compaction busy-time"},
	}
	rows := s.N(20_000)
	reads := s.N(5_000)
	eng, err := lsm.Open("/e08", lsm.Options{FS: lsm.NewMemFS(), MemtableFlushBytes: 256 << 10, DisableAutoCompact: true})
	if err != nil {
		panic(err)
	}
	defer eng.Close()
	// A slate row is keyed by user and updater column; every row is one
	// put, as a write-through flusher issues them.
	rowKey := func(i int) string { return fmt.Sprintf("user%06d/U", i) }
	writeTime := time.Date(2012, 8, 27, 0, 0, 0, 0, time.UTC)
	slateBlob := make([]byte, 256)
	for i := 0; i < rows; i++ {
		if _, err := eng.Put([]lsm.Row{{Key: rowKey(i), Value: slateBlob, WriteTime: writeTime}}); err != nil {
			panic(err)
		}
	}
	if _, err := eng.Flush(); err != nil {
		panic(err)
	}
	// Cold start: the slate cache is empty, so every fetch is a random
	// row read against the store.
	start := eng.Stats()
	for i := 0; i < reads; i++ {
		key := rowKey((i * 7919) % rows)
		if _, found, _, err := eng.Get(key); err != nil || !found {
			panic(fmt.Sprintf("cold read lost row %s: %v", key, err))
		}
	}
	cold := eng.Stats()
	if _, _, err := eng.Compact(); err != nil {
		panic(err)
	}
	compacted := eng.Stats()
	// A read the memtable answers costs nothing; any other is one seek
	// plus the bytes it read off segments. A compaction is a sequential
	// read of every segment and a sequential write of the merged one.
	segmentReads := (cold.Reads - cold.ReadsFromMem) - (start.Reads - start.ReadsFromMem)
	for _, d := range disks {
		readBusy := time.Duration(segmentReads)*d.seek + d.read(cold.BytesRead-start.BytesRead)
		perRead := time.Duration(0)
		if reads > 0 {
			perRead = readBusy / time.Duration(reads)
		}
		compactBusy := 2*d.seek + d.read(compacted.BytesRead-cold.BytesRead) + d.write(compacted.BytesWritten-cold.BytesWritten)
		t.Add(d.name, rows, reads, readBusy, perRead, compactBusy)
	}
	t.Note("HDD pays ~8ms seek per uncached row read; at a few thousand cold fetches/s that alone exceeds one disk's capacity")
	return t
}

// disk is a block device's cost model: a seek charged once per I/O
// operation, and sequential transfer rates in bytes per second.
type disk struct {
	name            string
	seek            time.Duration
	readBW, writeBW float64
}

// disks are E08's two profiles: the 2012-era SATA flash the paper
// deployed (~100µs access, several hundred MB/s) and a 7200rpm SATA
// disk (~8ms seek and rotate, ~150MB/s).
var disks = []disk{
	{name: "ssd", seek: 100 * time.Microsecond, readBW: 500 << 20, writeBW: 300 << 20},
	{name: "hdd", seek: 8 * time.Millisecond, readBW: 150 << 20, writeBW: 150 << 20},
}

func (d disk) read(n int64) time.Duration  { return transfer(n, d.readBW) }
func (d disk) write(n int64) time.Duration { return transfer(n, d.writeBW) }

func transfer(n int64, bw float64) time.Duration {
	return time.Duration(float64(n) / bw * float64(time.Second))
}

// E09FlushPolicy reproduces the §4.2 flushing spectrum ("from
// immediate write-through to only when evicted"): more aggressive
// flushing costs more store writes per applied update; lazier flushing
// loses more slate state when a machine dies (§4.3 accepts the loss).
func E09FlushPolicy(s Scale) Table {
	t := Table{
		ID:     "E09",
		Title:  "slate flush policy: store writes vs loss on crash",
		Claim:  "flush interval ranges write-through -> periodic -> evict-only (§4.2); unflushed changes are lost on failure (§4.3)",
		Header: []string{"policy", "slate updates", "store saves", "saves/update", "dirty slates lost on crash"},
	}
	n := s.N(20_000)
	for _, pol := range []struct {
		name   string
		policy muppet.FlushPolicy
		every  time.Duration
	}{
		{"write-through", muppet.WriteThrough, 0},
		{"interval 50ms", muppet.FlushInterval, 50 * time.Millisecond},
		{"on-evict only", muppet.FlushOnEvict, 0},
	} {
		store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
		eng, err := muppet.NewEngine(counterOnlyApp(), muppet.Config{
			Machines: 2, Store: store, StoreLevel: muppet.One,
			FlushPolicy: pol.policy, FlushEvery: pol.every,
			QueueCapacity: 1 << 16,
		})
		if err != nil {
			panic(err)
		}
		events := keyedEvents(9, n, 2000)
		// Stream most of the load, give the interval flusher time to
		// run, then stream a final burst and crash immediately: the
		// interval policy loses only the slates dirtied since its last
		// tick, between write-through (nothing) and evict-only
		// (everything).
		burst := len(events) / 20
		ingest(eng, events[:len(events)-burst])
		if pol.policy == muppet.FlushInterval {
			time.Sleep(3 * pol.every)
		}
		ingest(eng, events[len(events)-burst:])
		st := eng.Stats()
		saves := uint64(metric(eng, "muppet_slate_store_saves_total").Value)
		perUpdate := 0.0
		if st.SlateUpdates > 0 {
			perUpdate = float64(saves) / float64(st.SlateUpdates)
		}
		// Crash one machine and count dirty slates that die with it.
		_, dirtyLost := eng.CrashMachine("machine-00")
		t.Add(pol.name, st.SlateUpdates, saves, fmt.Sprintf("%.3f", perUpdate), dirtyLost)
		eng.Stop()
	}
	t.Note("write-through loses nothing but writes per update; evict-only writes least and loses the most on failure")
	return t
}

// E10Quorum reproduces the §4.2 consistency knob: with replicas
// contacted in parallel, an operation completes at the k-th fastest
// replica, so ONE < QUORUM < ALL in latency.
func E10Quorum(s Scale) Table {
	t := Table{
		ID:     "E10",
		Title:  "store consistency levels, RF=3, simulated 1ms RTT + jitter",
		Claim:  "applications choose ONE / QUORUM / ALL per operation (§4.2)",
		Header: []string{"level", "ops", "mean write", "mean read", "read-your-writes"},
	}
	n := s.N(3_000)
	for _, level := range []kvstore.Consistency{kvstore.One, kvstore.Quorum, kvstore.All} {
		cl := kvstore.NewCluster(kvstore.ClusterConfig{
			Nodes: 6, ReplicationFactor: 3,
			NetworkRTT: time.Millisecond, RTTJitter: 2 * time.Millisecond, Seed: 10,
		})
		var wTotal, rTotal time.Duration
		ryw := true
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%05d", i%500)
			val := []byte(fmt.Sprintf("v%d", i))
			wl, err := cl.Put(key, "U", val, 0, level)
			if err != nil {
				panic(err)
			}
			got, found, rl, err := cl.Get(key, "U", level)
			if err != nil {
				panic(err)
			}
			if level != kvstore.One && (!found || string(got) != string(val)) {
				ryw = false
			}
			wTotal += wl
			rTotal += rl
		}
		t.Add(level.String(), n, wTotal/time.Duration(n), rTotal/time.Duration(n), ryw)
	}
	t.Note("ONE may read stale data under failures; QUORUM and ALL read-your-writes")
	return t
}

// E11TTL reproduces the §4.2 TTL argument: with per-write TTL the
// store's live footprint tracks the active working set ("active
// Twitter users"), not the ever-growing set of all keys ever seen.
func E11TTL(s Scale) Table {
	t := Table{
		ID:     "E11",
		Title:  "TTL bounds slate storage under key churn",
		Claim:  "slates idle past their TTL are garbage-collected, keeping storage at the working set (§4.2)",
		Header: []string{"ttl", "simulated days", "keys written", "live rows after GC"},
	}
	days := 7
	perDay := s.N(2_000)
	for _, ttl := range []time.Duration{0, 24 * time.Hour} {
		fake := clock.NewFake(time.Unix(1_000_000, 0))
		cl := kvstore.NewCluster(kvstore.ClusterConfig{
			Nodes: 1, ReplicationFactor: 1, Clock: fake,
			Node: kvstore.NodeConfig{CompactionThreshold: 1 << 30},
		})
		written := 0
		for day := 0; day < days; day++ {
			for i := 0; i < perDay; i++ {
				// Each day has a fresh key population: yesterday's
				// users churn out, mimicking "only active users".
				key := fmt.Sprintf("day%02d-user%05d", day, i)
				cl.Put(key, "U", []byte("profile"), ttl, kvstore.One)
				written++
			}
			fake.Advance(24 * time.Hour)
		}
		if err := errors.Join(cl.FlushAll(), cl.CompactAll()); err != nil {
			panic(err)
		}
		live, err := cl.LiveRows()
		if err != nil {
			panic(err)
		}
		name := "forever"
		if ttl > 0 {
			name = ttl.String()
		}
		t.Add(name, days, written, live)
	}
	t.Note("without TTL the store keeps every key ever seen; with a 1-day TTL it holds only the last day's active keys")
	return t
}

// counterOnlyApp is a single-updater counting app used by store
// experiments, on the typed API (slates at rest stay the same ASCII
// decimals the byte-slate version wrote).
func counterOnlyApp() *muppet.App {
	return muppet.NewApp("counter").Input("S1").AddUpdate(muppetapps.Counting("U"), []string{"S1"}, nil, 0)
}

// keyedEvents builds a Zipf-keyed event stream.
func keyedEvents(seed int64, n, keys int) []muppet.Event {
	gen := genFor(seed)
	return gen.KeyedEvents("S1", n, keys)
}
