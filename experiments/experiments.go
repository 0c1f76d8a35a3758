// Package experiments regenerates every quantitative claim and design
// argument in the paper's evaluation (Sections 4 and 5). The paper is
// an experience paper without numbered result tables, so this package
// defines an experiment index mapping each claim to a reproducible
// measurement: E01–E17 and E19 (E18, a replay-log extension the paper
// leaves to future work, is retired and its ID not reused).
// ARCHITECTURE.md places the package in the system.
// Each experiment returns a Table of the series it reports;
// `go run ./cmd/mupbench` prints them and bench_test.go wraps them as
// testing.B benchmarks.
//
// Absolute numbers will not match the paper — the substrate is an
// in-process simulation on one host, not the authors' cluster — but
// the shapes the paper argues must hold: engine 2.0 beats 1.0, the
// central cache beats disparate caches, dual-queue dispatch and key
// splitting relieve hotspots, SSDs beat HDDs for cold slate reads,
// detect-on-send beats periodic pings, TTL bounds storage, and
// MapUpdate's per-event latency beats micro-batching by orders of
// magnitude.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"muppet"
	"muppet/muppetapps"
)

// Table is one experiment's result: a titled grid of rows.
type Table struct {
	ID     string
	Title  string
	Claim  string // the paper claim being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row; values are stringified with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a free-form note printed under the table.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "paper: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale shrinks or grows experiment workloads; 1.0 is the standard
// size `go run ./cmd/mupbench` prints, smaller values make smoke tests fast.
type Scale float64

// N scales an event count, with a floor to keep measurements sane.
func (s Scale) N(base int) int {
	n := int(float64(base) * float64(s))
	if n < 50 {
		n = 50
	}
	return n
}

// Runner is one experiment: a function from scale to result table.
type Runner func(Scale) Table

// Registry maps experiment IDs (e.g. "E01") to runners, in index
// order.
func Registry() []struct {
	ID  string
	Run Runner
} {
	return []struct {
		ID  string
		Run Runner
	}{
		{"E01", E01Throughput},
		{"E02", E02Latency},
		{"E03", E03MachineScaling},
		{"E04", E04Engine1vs2},
		{"E05", E05CacheWorkingSet},
		{"E06", E06HotspotDualQueue},
		{"E07", E07KeySplitting},
		{"E08", E08SSDvsHDD},
		{"E09", E09FlushPolicy},
		{"E10", E10Quorum},
		{"E11", E11TTL},
		{"E12", E12Failure},
		{"E13", E13Overflow},
		{"E14", E14Retailer},
		{"E15", E15HotTopics},
		{"E16", E16VsMicroBatch},
		{"E17", E17SlateSize},
		{"E19", E19BatchedIngress},
	}
}

// ingest pumps events through an engine over the batched ingress API
// (256-event batches, the production path) and returns the elapsed
// wall time after draining.
func ingest(e muppet.Engine, events []muppet.Event) time.Duration {
	start := time.Now()
	if _, err := muppet.Pump(context.Background(), e, muppet.EventsSource(events), 256); err != nil {
		panic(err)
	}
	e.Drain()
	return time.Since(start)
}

// ingestPerEvent pumps events one Ingest call at a time — the legacy
// fire-and-forget path E19 compares against.
func ingestPerEvent(e muppet.Engine, events []muppet.Event) time.Duration {
	start := time.Now()
	for _, ev := range events {
		e.Ingest(ev)
	}
	e.Drain()
	return time.Since(start)
}

// rate formats events/second.
func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// perDayM converts events/second to millions/day, the paper's framing.
func perDayM(r float64) float64 { return r * 86400 / 1e6 }

// checkins builds a deterministic checkin stream.
func checkins(seed int64, n int) []muppet.Event {
	gen := muppetapps.NewGenerator(muppetapps.GenConfig{Seed: seed, RetailerFraction: 0.3})
	return gen.Checkins("S1", n)
}

// genFor returns a deterministic generator.
func genFor(seed int64) *muppetapps.Generator {
	return muppetapps.NewGenerator(muppetapps.GenConfig{Seed: seed})
}

// sortedKeys of a string-keyed map.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
