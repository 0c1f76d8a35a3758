package core_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"muppet/internal/core"
	"muppet/internal/event"
	murt "muppet/internal/runtime"
	"muppet/internal/workload"
)

// Under the engines' emitter, Payload's blocks are carved from chunks
// the emitter holds: each decode gets a block of its own, and a
// steady-state decode costs its share of a 16 KiB chunk.

// delta has the shape of Example 3's delta payload.
type delta struct {
	From  string  `json:"from"`
	Delta float64 `json:"delta"`
}

// allocsPerDecode is the mean number of allocations of one Payload
// decode through an engine emitter over n decodes of docs in turn,
// after one warm-up round. (testing.AllocsPerRun rounds the mean down
// to a whole number.)
func allocsPerDecode[T any](docs [][]byte, n int) float64 {
	var em murt.Emitter
	for _, d := range docs {
		core.Payload[T](&em, event.Event{Value: d})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range n {
		core.Payload[T](&em, event.Event{Value: docs[i%len(docs)]})
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func TestPayloadDecodeAllocBudget(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 0.03
	var tweets [][]byte
	for _, ev := range workload.New(workload.Config{Seed: 3, Users: 1000, URLFraction: 0.5}).Tweets("S", 40) {
		tweets = append(tweets, ev.Value)
	}
	n := allocsPerDecode[workload.Tweet](tweets, 8000)
	t.Logf("%.4f allocations per tweet decode", n)
	if n > budget {
		t.Errorf("decoding a tweet payload: %.4f allocations, budget %.2f", n, budget)
	}
	var deltas [][]byte
	for i := range 40 {
		deltas = append(deltas, fmt.Appendf(nil, `{"from":"user%05d","delta":0.%d}`, i*37, 1000+i))
	}
	n = allocsPerDecode[delta](deltas, 8000)
	t.Logf("%.4f allocations per delta decode", n)
	if n > budget {
		t.Errorf("decoding a delta payload: %.4f allocations, budget %.2f", n, budget)
	}
}

// Goroutines decoding at once, each through an emitter of its own as a
// worker thread does, each keep every object they decoded; no object
// changes afterwards. A block handed out twice, or a chunk two emitters
// carve from, shows as a mismatch (and, under -race, as a race).
func TestPayloadBlocksNeverShared(t *testing.T) {
	const goroutines, decodes = 8, 2000
	docs := make([][][]byte, goroutines)
	got := make([][]*workload.Tweet, goroutines)
	for g := range docs {
		for _, ev := range workload.New(workload.Config{Seed: int64(g + 1), Users: 1000, URLFraction: 0.5}).Tweets("S", decodes) {
			docs[g] = append(docs[g], ev.Value)
		}
	}
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var em murt.Emitter
			for _, doc := range docs[g] {
				tw, err := core.Payload[workload.Tweet](&em, event.Event{Value: doc})
				if err != nil {
					t.Errorf("decoding %s: %v", doc, err)
					return
				}
				got[g] = append(got[g], tw)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, tw := range got[g] {
			var want workload.Tweet
			if err := json.Unmarshal(docs[g][i], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(*tw, want) {
				t.Fatalf("goroutine %d, decode %d: kept %#v, its document says %#v", g, i, *tw, want)
			}
		}
	}
}
