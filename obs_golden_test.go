package muppet_test

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"muppet"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from this run")

// expositionShape GETs /metrics and reduces the body to what a
// dashboard depends on: the # HELP and # TYPE lines verbatim and every
// sample's key (name + label set), values stripped.
func expositionShape(t *testing.T, eng muppet.Engine) string {
	t.Helper()
	rr := httptest.NewRecorder()
	muppet.Handler(eng).ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(rr.Body.String(), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// goldenEngine runs the conformance app through a scripted workload
// whose label sets are deterministic: one overflow loss, both streams
// traced, a spread of keys over two machines, one top-k query, and a
// forced flush.
func goldenEngine(t *testing.T, version muppet.EngineVersion, store *muppet.Store) string {
	t.Helper()
	eng, err := muppet.NewEngine(obsConformanceApp(), muppet.Config{
		Engine:        version,
		Machines:      2,
		QueueCapacity: 2,
		QueuePolicy:   muppet.DropOverflow,
		Store:         store,
		StoreLevel:    muppet.One,
		Observability: muppet.ObservabilityConfig{Tracing: true, SampleRate: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	for i := 0; eng.Stats().LostOverflow == 0; i++ {
		if i >= 500_000 {
			t.Fatal("no overflow drop after 500k hot-key events")
		}
		eng.Ingest(hotEvent(i))
	}
	eng.Drain()
	for j := 0; j < 64; j++ {
		eng.Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(j + 1), Key: fmt.Sprintf("k%d", j%16), Value: []byte("v")})
		eng.Drain()
	}
	if _, err := eng.Query(muppet.QuerySpec{Updater: "U1", Agg: "topk", K: 5, By: "count"}); err != nil {
		t.Fatalf("topk query: %v", err)
	}
	eng.FlushSlates()
	return expositionShape(t, eng)
}

// TestMetricsGolden pins the /metrics surface — every name, HELP
// string, TYPE and label set — of both engine versions with and
// without a store, and of one TCP node behind the chaos transport.
// Run with -update to regenerate after a deliberate change.
func TestMetricsGolden(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T) string
	}{
		{"engine2", func(t *testing.T) string { return goldenEngine(t, muppet.EngineV2, nil) }},
		{"engine1", func(t *testing.T) string { return goldenEngine(t, muppet.EngineV1, nil) }},
		{"engine2-store", func(t *testing.T) string {
			return goldenEngine(t, muppet.EngineV2, muppet.NewStore(muppet.StoreConfig{Nodes: 2, ReplicationFactor: 2}))
		}},
		{"engine1-durable-store", func(t *testing.T) string {
			store, err := muppet.OpenStore(muppet.StoreConfig{Nodes: 2, ReplicationFactor: 2, Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			return goldenEngine(t, muppet.EngineV1, store)
		}},
		{"tcp-chaos", func(t *testing.T) string {
			nodes := startChaosNodes(t, []string{"machine-00", "machine-01"}, func(string) *muppet.ChaosConfig {
				return &muppet.ChaosConfig{Seed: 1}
			})
			for i := 0; i < 64; i++ {
				nodes["machine-00"].Ingest(muppet.Event{Stream: "S1", TS: muppet.Timestamp(i + 1), Key: fmt.Sprintf("r%d", i%16)})
			}
			drainAll(nodes)
			return expositionShape(t, nodes["machine-00"])
		}},
	}
	var got strings.Builder
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			fmt.Fprintf(&got, "## %s\n%s", sc.name, sc.run(t))
		})
	}
	const path = "testdata/metrics.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || g != wantLines[i] {
			t.Fatalf("/metrics shape differs from %s at line %d: got %q\n(go test -run TestMetricsGolden -update . regenerates it)", path, i+1, g)
		}
	}
	if got.Len() != len(want) {
		t.Fatalf("/metrics shape is %d bytes, %s has %d: lines are missing", got.Len(), path, len(want))
	}
}
