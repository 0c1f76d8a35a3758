package engine2

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"muppet/internal/core"
	"muppet/internal/event"
	"muppet/internal/kvstore"
	"muppet/internal/queue"
	"muppet/internal/slate"
)

// The typed-vs-untyped ingest pair: the same JSON-profile application
// written against the classic byte-slate API (full json.Unmarshal +
// json.Marshal of the slate on every event) and against the typed API
// (slate decoded once on cache fill, mutated in place, encoded once
// per background flush). allocs/op is the headline — the typed run
// must show the per-event slate serialization gone.

// profileSlate is a realistic small profile: a per-section counter map
// plus a total, the shape hot-topics/top-urls style slates take.
type profileSlate struct {
	Counts map[string]int `json:"counts"`
	Total  int            `json:"total"`
}

var benchSections = [8]string{"home", "cart", "search", "products", "account", "help", "api", "checkout"}

func untypedProfileApp() *core.App {
	u := core.UpdateFunc{FName: "U_prof", Fn: func(emit core.Emitter, in event.Event, sl []byte) {
		var s profileSlate
		if sl != nil {
			json.Unmarshal(sl, &s)
		}
		if s.Counts == nil {
			s.Counts = make(map[string]int, len(benchSections))
		}
		s.Counts[string(in.Value)]++
		s.Total++
		b, _ := json.Marshal(&s)
		emit.ReplaceSlate(b)
	}}
	return core.NewApp("profiles").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

func typedProfileApp() *core.App {
	u := core.Update[profileSlate]("U_prof", func(emit core.Emitter, in event.Event, s *profileSlate) {
		if s.Counts == nil {
			s.Counts = make(map[string]int, len(benchSections))
		}
		s.Counts[string(in.Value)]++
		s.Total++
	})
	return core.NewApp("profiles").Input("S1").AddUpdate(u, []string{"S1"}, nil, 0)
}

// profileBench drives b.N section hits over 256 profile keys with the
// production-default Interval flush against a device-free store, so
// the typed variant pays its encodes in the background group-commit
// batches, exactly as deployed.
func profileBench(b *testing.B, app *core.App) {
	store := kvstore.NewCluster(kvstore.ClusterConfig{Nodes: 3, ReplicationFactor: 2})
	e, err := New(app, Config{
		Machines: 1, ThreadsPerMachine: 8, QueueCapacity: 4096,
		QueuePolicy: queue.Block,
		Store:       store, StoreLevel: kvstore.One,
		FlushPolicy: slate.Interval, FlushInterval: 5 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Stop()
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%d", i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest(event.Event{
			Stream: "S1",
			TS:     event.Timestamp(i + 1),
			Key:    keys[i%len(keys)],
			Value:  []byte(benchSections[i%len(benchSections)]),
		})
	}
	e.Drain()
}

// BenchmarkSlateAPIUntypedJSON is the baseline: the classic byte-slate
// API pays a full slate unmarshal + marshal per event.
func BenchmarkSlateAPIUntypedJSON(b *testing.B) { profileBench(b, untypedProfileApp()) }

// BenchmarkSlateAPITyped is the same app on the typed API: decode once
// per cache fill, mutate in place, encode once per flush batch.
func BenchmarkSlateAPITyped(b *testing.B) { profileBench(b, typedProfileApp()) }
