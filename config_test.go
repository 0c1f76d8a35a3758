package muppet_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"muppet"
)

// testRegistry registers a splitter mapper and a counter updater, the
// way a Muppet deployment registers application classes.
func testRegistry() *muppet.Registry {
	reg := muppet.NewRegistry()
	reg.RegisterMapper("splitter", func(name string) muppet.Mapper {
		return muppet.MapFunc{FName: name, Fn: func(emit muppet.Emitter, in muppet.Event) {
			for _, w := range strings.Fields(string(in.Value)) {
				emit.Publish("words", w, nil)
			}
		}}
	})
	reg.RegisterUpdater("counter", func(name string) muppet.Updater {
		return muppet.UpdateFunc{FName: name, Fn: func(emit muppet.Emitter, in muppet.Event, sl []byte) {
			n := 0
			if sl != nil {
				n, _ = strconv.Atoi(string(sl))
			}
			emit.ReplaceSlate([]byte(strconv.Itoa(n + 1)))
		}}
	})
	return reg
}

const wordCountConfig = `{
  "name": "wordcount",
  "inputs": ["lines"],
  "functions": [
    {"kind": "map", "name": "M_split", "code": "splitter", "subscribes": ["lines"], "publishes": ["words"]},
    {"kind": "update", "name": "U_count", "code": "counter", "subscribes": ["words"], "ttl": "72h"}
  ],
  "engine": {"version": 2, "machines": 2, "queue_policy": "drop", "flush_policy": "interval", "flush_every": "50ms"},
  "store": {"nodes": 3, "replication_factor": 3, "consistency": "quorum", "device": "none"}
}`

func TestConfigBuildAndRun(t *testing.T) {
	cfg, err := muppet.ParseAppConfig([]byte(wordCountConfig))
	if err != nil {
		t.Fatal(err)
	}
	app, ecfg, err := cfg.Build(testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if app.Name() != "wordcount" {
		t.Fatalf("name = %q", app.Name())
	}
	if ecfg.Store == nil || ecfg.StoreLevel != muppet.Quorum {
		t.Fatal("store config not applied")
	}
	if app.TTLFor("U_count").Hours() != 72 {
		t.Fatalf("ttl = %v", app.TTLFor("U_count"))
	}
	eng, err := muppet.NewEngine(app, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	eng.Ingest(muppet.Event{Stream: "lines", TS: 1, Key: "l1", Value: []byte("to be or not to be")})
	eng.Drain()
	if got := string(eng.Slate("U_count", "to")); got != "2" {
		t.Fatalf("count(to) = %q, want 2", got)
	}
	if got := string(eng.Slate("U_count", "or")); got != "1" {
		t.Fatalf("count(or) = %q, want 1", got)
	}
}

func TestConfigLoadFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "app.json")
	if err := os.WriteFile(path, []byte(wordCountConfig), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := muppet.LoadAppConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Name != "wordcount" {
		t.Fatalf("name = %q", cfg.Name)
	}
	if _, err := muppet.LoadAppConfig(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

func TestConfigCodeDefaultsToName(t *testing.T) {
	reg := muppet.NewRegistry()
	reg.RegisterUpdater("U1", func(name string) muppet.Updater {
		return muppet.UpdateFunc{FName: name, Fn: func(muppet.Emitter, muppet.Event, []byte) {}}
	})
	cfg, _ := muppet.ParseAppConfig([]byte(`{
	  "name": "x", "inputs": ["S1"],
	  "functions": [{"kind": "update", "name": "U1", "subscribes": ["S1"]}],
	  "engine": {}
	}`))
	if _, _, err := cfg.Build(reg); err != nil {
		t.Fatal(err)
	}
}

func TestConfigErrors(t *testing.T) {
	reg := testRegistry()
	cases := []struct {
		name string
		json string
		want string
	}{
		{"bad json", `{`, "parse"},
		{"unknown code", `{"name":"x","inputs":["S1"],"functions":[{"kind":"map","name":"M","code":"nope","subscribes":["S1"]}],"engine":{}}`, "no registered mapper"},
		{"unknown updater code", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"nope","subscribes":["S1"]}],"engine":{}}`, "no registered updater"},
		{"bad kind", `{"name":"x","inputs":["S1"],"functions":[{"kind":"reduce","name":"R","subscribes":["S1"]}],"engine":{}}`, "kind"},
		{"bad ttl", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"],"ttl":"tomorrow"}],"engine":{}}`, "ttl"},
		{"bad version", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{"version":3}}`, "version"},
		{"bad policy", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{"queue_policy":"explode"}}`, "queue policy"},
		{"bad flush", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{"flush_policy":"sometimes"}}`, "flush policy"},
		{"bad flush_every", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{"flush_every":"often"}}`, "flush_every"},
		{"bad device", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{},"store":{"device":"tape"}}`, "device"},
		{"bad consistency", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["S1"]}],"engine":{},"store":{"consistency":"hopeful"}}`, "consistency"},
		{"invalid graph", `{"name":"x","inputs":["S1"],"functions":[{"kind":"update","name":"U","code":"counter","subscribes":["ghost"]}],"engine":{}}`, "ghost"},
	}
	for _, c := range cases {
		cfg, err := muppet.ParseAppConfig([]byte(c.json))
		if err == nil {
			_, _, err = cfg.Build(reg)
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
}

func TestRegistryCodes(t *testing.T) {
	reg := testRegistry()
	mappers, updaters := reg.Codes()
	if len(mappers) != 1 || mappers[0] != "splitter" {
		t.Fatalf("mappers = %v", mappers)
	}
	if len(updaters) != 1 || updaters[0] != "counter" {
		t.Fatalf("updaters = %v", updaters)
	}
}

func TestConfigEngineV1(t *testing.T) {
	cfg, _ := muppet.ParseAppConfig([]byte(`{
	  "name": "x", "inputs": ["lines"],
	  "functions": [
	    {"kind": "map", "name": "M_split", "code": "splitter", "subscribes": ["lines"], "publishes": ["words"]},
	    {"kind": "update", "name": "U_count", "code": "counter", "subscribes": ["words"]}
	  ],
	  "engine": {"version": 1, "machines": 2, "workers_per_function": 3, "queue_policy": "block", "flush_policy": "on-evict"}
	}`))
	app, ecfg, err := cfg.Build(testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if ecfg.Engine != muppet.EngineV1 || ecfg.WorkersPerFunction != 3 {
		t.Fatalf("engine cfg = %+v", ecfg)
	}
	eng, err := muppet.NewEngine(app, ecfg)
	if err != nil {
		t.Fatal(err)
	}
	eng.Ingest(muppet.Event{Stream: "lines", TS: 1, Key: "l", Value: []byte("a b a")})
	eng.Drain()
	if got := string(eng.Slate("U_count", "a")); got != "2" {
		t.Fatalf("count(a) = %q", got)
	}
	eng.Stop()
}

func TestConfigRecoveryKnobs(t *testing.T) {
	cfg, err := muppet.ParseAppConfig([]byte(`{
	  "name": "x", "inputs": ["lines"],
	  "functions": [
	    {"kind": "map", "name": "M_split", "code": "splitter", "subscribes": ["lines"], "publishes": ["words"]},
	    {"kind": "update", "name": "U_count", "code": "counter", "subscribes": ["words"]}
	  ],
	  "engine": {"machines": 2,
	    "recovery": {"suspicion_k": 5, "suspicion_window": "2s"}}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	_, ecfg, err := cfg.Build(testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	r := ecfg.Recovery
	if r.SuspicionK != 5 || r.SuspicionWindow != 2*time.Second {
		t.Fatalf("suspicion knobs = %d/%v, want 5/2s", r.SuspicionK, r.SuspicionWindow)
	}
}

// TestConfigRejectsUnknownKeys: a key the file format does not know is
// an error naming it, so a setting that was removed fails loudly rather
// than being silently ignored.
func TestConfigRejectsUnknownKeys(t *testing.T) {
	for _, c := range []struct{ key, section string }{
		{"output_capacity", `"engine": {"output_capacity": 64}`},
		{"disable_detector", `"engine": {"recovery": {"disable_detector": true}}`},
		{"disable_rejoin_warm", `"engine": {"recovery": {"disable_rejoin_warm": true}}`},
		{"warm_limit", `"engine": {"recovery": {"warm_limit": 500}}`},
		{"disable_wal_replay", `"engine": {"recovery": {"disable_wal_replay": true}}`},
		{"replay_log", `"engine": {"replay_log": true}`},
		{"dedup_window", `"network": {"nodes": {}, "dedup_window": 512}`},
		{"send_retry_max_backoff", `"network": {"nodes": {}, "send_retry_max_backoff": "40ms"}`},
		{"machnes", `"engine": {"machnes": 4}`},
	} {
		_, err := muppet.ParseAppConfig([]byte(`{"name": "x", "inputs": ["S1"], "functions": [], ` + c.section + `}`))
		if err == nil || !strings.Contains(err.Error(), `"`+c.key+`"`) {
			t.Errorf("%s: err = %v, want an unknown-field error naming it", c.key, err)
		}
	}
	if _, err := muppet.ParseAppConfig([]byte(`{"name": "x"} {"name": "y"}`)); err == nil {
		t.Error("a second document after the configuration was accepted")
	}
}

func TestConfigNetworkSection(t *testing.T) {
	cfg, err := muppet.ParseAppConfig([]byte(`{
	  "name": "x", "inputs": ["lines"],
	  "functions": [
	    {"kind": "map", "name": "M_split", "code": "splitter", "subscribes": ["lines"], "publishes": ["words"]},
	    {"kind": "update", "name": "U_count", "code": "counter", "subscribes": ["words"]}
	  ],
	  "engine": {"machines": 3},
	  "network": {
	    "nodes": {
	      "machine-00": "10.0.0.1:7070",
	      "machine-01": "10.0.0.2:7070",
	      "machine-02": "10.0.0.3:7070"
	    },
	    "dial_timeout": "250ms", "retry_backoff": "10ms",
	    "send_retries": 4, "send_retry_backoff": "2ms",
	    "chaos": {"seed": 42, "drop_request": 0.1, "drop_response": 0.05,
	      "duplicate": 0.02, "delay": 0.2, "max_delay": "3ms", "max_faults": 2,
	      "partitions": [{"machine": "machine-02", "from": 10, "to": 20}]}
	  }
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Network == nil || len(cfg.Network.Nodes) != 3 {
		t.Fatalf("network section = %+v", cfg.Network)
	}
	n, err := cfg.Network.BuildNetwork("machine-01", "")
	if err != nil {
		t.Fatal(err)
	}
	if n.Node != "machine-01" || n.Listen != "10.0.0.2:7070" {
		t.Fatalf("node/listen = %q/%q", n.Node, n.Listen)
	}
	if len(n.Peers) != 2 || n.Peers["machine-00"] != "10.0.0.1:7070" || n.Peers["machine-02"] != "10.0.0.3:7070" {
		t.Fatalf("peers = %+v", n.Peers)
	}
	if _, ok := n.Peers["machine-01"]; ok {
		t.Fatal("local machine leaked into the peer map")
	}
	if n.DialTimeout.String() != "250ms" || n.RetryBackoff.String() != "10ms" {
		t.Fatalf("durations = %v/%v", n.DialTimeout, n.RetryBackoff)
	}
	if n.IOTimeout != 0 || n.MaxBackoff != 0 {
		t.Fatalf("unset durations should stay zero, got %v/%v", n.IOTimeout, n.MaxBackoff)
	}
	if n.SendRetries != 4 || n.SendRetryBackoff != 2*time.Millisecond {
		t.Fatalf("delivery knobs = %d/%v", n.SendRetries, n.SendRetryBackoff)
	}
	ch := n.Chaos
	if ch == nil || ch.Seed != 42 || ch.DropRequest != 0.1 || ch.DropResponse != 0.05 ||
		ch.Duplicate != 0.02 || ch.Delay != 0.2 || ch.MaxDelay != 3*time.Millisecond ||
		ch.MaxFaultsPerDelivery != 2 {
		t.Fatalf("chaos cfg = %+v", ch)
	}
	if len(ch.Partitions) != 1 || ch.Partitions[0] != (muppet.ChaosPartition{Machine: "machine-02", From: 10, To: 20}) {
		t.Fatalf("chaos partitions = %+v", ch.Partitions)
	}

	// The -listen override rebinds without changing what peers dial.
	n2, err := cfg.Network.BuildNetwork("machine-01", "0.0.0.0:7070")
	if err != nil {
		t.Fatal(err)
	}
	if n2.Listen != "0.0.0.0:7070" {
		t.Fatalf("listen override = %q", n2.Listen)
	}

	if _, err := cfg.Network.BuildNetwork("machine-09", ""); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestConfigNetworkBadDuration(t *testing.T) {
	n := &muppet.NetworkFileConfig{
		Nodes:       map[string]string{"machine-00": "127.0.0.1:7070"},
		DialTimeout: "not-a-duration",
	}
	if _, err := n.BuildNetwork("machine-00", ""); err == nil {
		t.Fatal("bad duration accepted")
	}
}
