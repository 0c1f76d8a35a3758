package muppet_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"muppet"
	"muppet/muppetapps"
)

// These are cross-module integration tests: real applications on real
// engines with a real slate store, queried through the real HTTP API —
// the full stack a Muppet deployment exercises.

func startRetailer(t *testing.T, cfg muppet.Config, n int) muppet.Engine {
	t.Helper()
	eng, err := muppet.NewEngine(muppetapps.RetailerApp(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 77, RetailerFraction: 0.5})
	for i := 0; i < n; i++ {
		eng.Ingest(gen.Checkin("S1"))
	}
	eng.Drain()
	return eng
}

func TestHTTPSlateFetchEndToEnd(t *testing.T) {
	eng := startRetailer(t, muppet.Config{Machines: 3, QueueCapacity: 1 << 15}, 2000)
	defer eng.Stop()
	srv := httptest.NewServer(muppet.Handler(eng))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/slate/U1/Walmart")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if n, err := strconv.Atoi(string(body)); err != nil || n <= 0 {
		t.Fatalf("slate body %q", body)
	}
	// The HTTP view matches the direct view.
	if string(body) != string(eng.Slate("U1", "Walmart")) {
		t.Fatal("HTTP slate differs from direct read")
	}
}

func TestHTTPStatusEndToEnd(t *testing.T) {
	eng := startRetailer(t, muppet.Config{Machines: 2, QueueCapacity: 1 << 15}, 500)
	defer eng.Stop()
	srv := httptest.NewServer(muppet.Handler(eng))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Queues   map[string]int `json:"queues"`
		Updaters []string       `json:"updaters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Queues) != 2 {
		t.Fatalf("queues = %v", st.Queues)
	}
	if len(st.Updaters) != 1 || st.Updaters[0] != "U1" {
		t.Fatalf("updaters = %v", st.Updaters)
	}
}

func TestBulkSlateDumpEndToEnd(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng := startRetailer(t, muppet.Config{
		Machines: 3, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour, // flusher idle: dump must flush
		QueueCapacity: 1 << 15,
	}, 2000)
	defer eng.Stop()
	srv := httptest.NewServer(muppet.Handler(eng))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/slates/U1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var dump map[string][]byte // JSON base64 values decode into []byte
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatal(err)
	}
	if len(dump) == 0 {
		t.Fatal("empty dump")
	}
	for _, r := range muppetapps.RetailerSet() {
		want := string(eng.Slate("U1", r))
		if want == "" {
			continue
		}
		if got := string(dump[r]); got != want {
			t.Fatalf("dump[%s] = %q, want %q", r, got, want)
		}
	}
}

func TestBulkDumpWithoutStore404s(t *testing.T) {
	eng := startRetailer(t, muppet.Config{Machines: 1, QueueCapacity: 1 << 15}, 100)
	defer eng.Stop()
	srv := httptest.NewServer(muppet.Handler(eng))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/slates/U1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestStoredSlatesMatchCacheAfterFlush(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
	eng := startRetailer(t, muppet.Config{
		Machines: 2, Store: store, StoreLevel: muppet.One,
		FlushPolicy: muppet.FlushInterval, FlushEvery: time.Hour,
		QueueCapacity: 1 << 15,
	}, 1000)
	defer eng.Stop()
	eng.FlushSlates()
	stored := eng.StoredSlates("U1")
	live := eng.Slates("U1")
	if len(stored) != len(live) {
		t.Fatalf("stored %d slates, live %d", len(stored), len(live))
	}
	for k, v := range live {
		if string(stored[k]) != string(v) {
			t.Fatalf("slate %s: stored %q, live %q", k, stored[k], v)
		}
	}
}

func TestEngine1BulkDump(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 1, ReplicationFactor: 1})
	eng := startRetailer(t, muppet.Config{
		Engine: muppet.EngineV1, Machines: 2,
		Store: store, StoreLevel: muppet.One,
		FlushPolicy:   muppet.WriteThrough,
		QueueCapacity: 1 << 15,
	}, 1000)
	defer eng.Stop()
	stored := eng.StoredSlates("U1")
	if len(stored) == 0 {
		t.Fatal("engine1 bulk dump empty")
	}
}

// TestCrashRecoveryEndToEnd drives the full §4.3 story on the public
// API: persist at quorum, kill a machine, keep streaming, verify the
// counts recover from the store on the new owner.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	store := muppet.NewStore(muppet.StoreConfig{Nodes: 3, ReplicationFactor: 3})
	eng, err := muppet.NewEngine(muppetapps.RetailerApp(), muppet.Config{
		Machines: 6, Store: store, StoreLevel: muppet.Quorum,
		FlushPolicy: muppet.WriteThrough, QueueCapacity: 1 << 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: 5, RetailerFraction: 1})
	total := 0
	for i := 0; i < 3000; i++ {
		eng.Ingest(gen.Checkin("S1"))
		total++
		if i == 1500 {
			eng.Drain()
			eng.CrashMachine("machine-02")
		}
	}
	eng.Drain()
	counted := 0
	for _, r := range muppetapps.RetailerSet() {
		counted += muppetapps.Count(eng.Slate("U1", r))
	}
	lost := int(eng.Stats().LostMachineDown)
	if counted+lost != total {
		t.Fatalf("counted %d + lost %d != %d ingested", counted, lost, total)
	}
	if counted < total*9/10 {
		t.Fatalf("lost too much: counted only %d of %d", counted, total)
	}
}
