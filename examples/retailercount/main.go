// Command retailercount runs the paper's flagship example (Examples 1
// and 4, Figures 1b, 3 and 4): counting Foursquare checkins per
// retailer, live, with slates persisted to a replicated key-value
// store and the counts maintained continuously as the stream flows.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"
)

import (
	"muppet"
	"muppet/muppetapps"
)

func main() {
	events := flag.Int("events", 50_000, "number of checkins to stream")
	machines := flag.Int("machines", 4, "simulated Muppet machines")
	engineV := flag.Int("engine", 2, "Muppet engine version (1 or 2)")
	flag.Parse()

	version := muppet.EngineV2
	if *engineV == 1 {
		version = muppet.EngineV1
	}

	// The durable slate store: a 3-node replicated cluster with quorum
	// reads/writes — the configuration Section 4.2 describes.
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})

	eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
		Engine:      version,
		Machines:    *machines,
		Store:       store,
		StoreLevel:  muppet.Quorum,
		FlushPolicy: muppet.FlushInterval,
		FlushEvery:  50 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// The streaming ingress path: a pull Source of synthetic checkins,
	// pumped through the engine in batches so ring sends and queue
	// locks are paid per batch rather than per event.
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 2012, RetailerFraction: 0.3})
	src := muppet.Take(muppetapps.CheckinSource(gen, "S1"), *events)
	start := time.Now()
	stats, err := muppet.Pump(context.Background(), eng, src, 256)
	if err != nil {
		log.Fatal(err)
	}
	eng.Drain()
	elapsed := time.Since(start)

	fmt.Printf("streamed %d checkins (%d accepted, %d batches) through %d machines (engine %d) in %v (%.0f events/s)\n",
		stats.Events, stats.Accepted, stats.Batches, *machines, *engineV,
		elapsed.Round(time.Millisecond), float64(stats.Events)/elapsed.Seconds())
	fmt.Println("live checkin counts per retailer:")
	for _, r := range muppetapps.RetailerSet() {
		fmt.Printf("  %-12s %6d\n", r, muppetapps.Count(eng.Slate("U1", r)))
	}
	fmt.Printf("pipeline latency: %s\n", muppet.LatencySummary(eng))

	st := store.Cluster().TotalStats()
	live, err := store.Cluster().LiveRows()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("slate store: %d live rows, %d sstables, %d flushes, %d compactions\n",
		live, st.SSTables, st.Flushes, st.Compactions)
}
