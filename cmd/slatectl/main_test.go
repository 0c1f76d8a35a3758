package main

import (
	"encoding/json"
	"strings"
	"testing"

	"muppet/internal/obs"
)

// TestRenderStatsSnapshot renders a /statsz snapshot as the server
// sends it: a registry's SnapshotJSON, marshaled and read back. Every
// summary quantile the wire carries lands in its own column.
func TestRenderStatsSnapshot(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("muppet_demo_total", "Demo counter.", obs.L("machine", "m1"), func() uint64 { return 42 })
	reg.Register(obs.CollectorFunc(func(emit func(obs.Metric)) {
		emit(obs.Metric{Name: "muppet_demo_seconds", Help: "Demo summary.", Type: obs.TypeSummary, Hist: &obs.HistSample{
			Count: 7, Sum: 9, Min: 0.5, Max: 5,
			Quantiles: []obs.Quantile{{Q: 0.5, V: 1}, {Q: 0.9, V: 2}, {Q: 0.95, V: 3}, {Q: 0.99, V: 4}},
		}})
	}))
	wire, err := json.Marshal(reg.SnapshotJSON())
	if err != nil {
		t.Fatal(err)
	}
	var entries []obs.SnapshotEntry
	if err := json.Unmarshal(wire, &entries); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderStats(&b, entries)
	rows := map[string][]string{}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		f := strings.Fields(line)
		rows[f[0]] = f[1:]
	}
	for name, want := range map[string]string{
		"METRIC":                        "TYPE VALUE COUNT P50 P90 P95 P99 MAX",
		"muppet_demo_seconds":           "summary 7 1 2 3 4 5",
		"muppet_demo_total{machine=m1}": "counter 42",
	} {
		if got := strings.Join(rows[name], " "); got != want {
			t.Errorf("row %s = %q, want %q\n%s", name, got, want, b.String())
		}
	}
}

// TestParseQueryEncodesSpec: the query subcommand's flags encode to the
// POST /query wire shape, which the server's own spec type accepts.
func TestParseQueryEncodesSpec(t *testing.T) {
	spec, err := parseQuery([]string{
		"-stream", "U1", "-prefix", "W", "-where", "count:gt:3,key:prefix:Wal",
		"-fields", "key,count", "-topk", "3", "-by", "count", "-interval", "250ms",
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"updater":"U1","prefix":"W","where":[{"field":"count","op":"gt","value":"3"},{"field":"key","op":"prefix","value":"Wal"}],"fields":["key","count"],"agg":"topk","by":"count","k":3,"watch":true,"every_ms":250}`
	if string(body) != want {
		t.Fatalf("spec encodes as\n%s\nwant\n%s", body, want)
	}
	if err := spec.Normalize(); err != nil {
		t.Fatalf("the server refuses the spec: %v", err)
	}
	for _, args := range [][]string{
		{"-topk", "3"},                     // no updater
		{"-stream", "U1", "-where", "key"}, // predicate without op and value
		{"-stream", "U1", "extra"},         // stray argument
	} {
		if _, err := parseQuery(args, false); err == nil {
			t.Errorf("parseQuery(%q) accepted a bad command line", args)
		}
	}
}
