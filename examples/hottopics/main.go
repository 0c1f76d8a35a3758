// Command hottopics runs the hot-topic detector of Examples 2 and 5
// (Figure 1c): a three-stage MapUpdate workflow that classifies
// tweets into topics, counts mentions per (topic, minute), and emits a
// <topic, minute> event whenever a minute's count exceeds a multiple
// of the topic's historical per-minute average. The demo plants a
// burst and shows the detector firing on it.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sort"
)

import (
	"muppet"
	"muppet/muppetapps"
)

func main() {
	tweets := flag.Int("tweets", 30_000, "tweets to stream (10/s of stream time)")
	hot := flag.String("hot", "music", "topic to plant a burst for")
	burstMin := flag.Int("burst-minute", 20, "stream minute the burst starts")
	flag.Parse()

	app := muppetapps.HotTopicsApp(muppetapps.HotTopicsConfig{Threshold: 3, MinCount: 30})
	eng, err := muppet.NewEngine(app, muppet.Config{Machines: 4, QueueCapacity: 1 << 15})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Stop()

	// Egress is a live subscription: verdict events arrive on a
	// bounded channel as the detector fires. The engine keeps none of
	// them, so subscribe before the stream starts.
	sub := eng.Subscribe("S4", 1024)
	live := make(chan map[string]bool)
	go func() {
		verdicts := make(map[string]bool)
		for ev := range sub.C() {
			verdicts[ev.Key] = true
		}
		live <- verdicts
	}()

	gen := muppetapps.NewGenerator(muppetapps.GenConfig{
		Seed:            7,
		EventsPerSecond: 10, // 600 tweets per stream minute
		HotTopic:        *hot,
		HotFromMinute:   *burstMin,
		HotToMinute:     *burstMin + 2,
		HotBoost:        25,
	})
	src := muppet.Take(muppetapps.TweetSource(gen, "S1"), *tweets)
	if _, err := muppet.Pump(context.Background(), eng, src, 256); err != nil {
		log.Fatal(err)
	}
	eng.Stop() // drains, then closes the subscription channel

	verdicts := <-live
	keys := make([]string, 0, len(verdicts))
	for k := range verdicts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("streamed %d tweets (%d stream minutes); planted burst: topic %q at minute %d\n",
		*tweets, *tweets/600, *hot, *burstMin)
	fmt.Printf("(%d verdict events delivered live, %d dropped by the slow-subscriber bound)\n",
		len(verdicts), sub.Dropped())
	fmt.Println("hot <topic, minute> verdicts on S4:")
	for _, k := range keys {
		fmt.Printf("  %s\n", k)
	}
	if len(keys) == 0 {
		fmt.Println("  (none)")
	}
	fmt.Printf("pipeline latency: %s\n", muppet.LatencySummary(eng))
}
