package obs

import (
	"strings"
	"testing"
	"time"
)

type testStats struct {
	Hits    uint64            `metric:"t_hits_total" help:"Hits."`
	Size    int               `metric:"t_size" help:"Size."`
	Peak    int32             `metric:"t_peak"`
	Busy    time.Duration     `metric:"t_busy_seconds" help:"Busy."`
	Kinds   map[string]uint64 `metric:"t_kinds_total" label:"kind" help:"By kind."`
	Hidden  uint64            `metric:"-"`
	Name    string
	Durable bool
	private uint64
}

func TestStructOneSnapshotPerGather(t *testing.T) {
	r := NewRegistry()
	calls := 0
	snap := func() testStats {
		calls++
		return testStats{Hits: 7, Size: 3, Peak: 2, Busy: 1500 * time.Millisecond, Hidden: 9, private: 1,
			Kinds: map[string]uint64{"scan": 4, "topk": 5}}
	}
	derived := func(s testStats, emit func(Metric)) {
		emit(Sample("t_double_total", "Twice the hits.", nil, float64(2*s.Hits)))
	}
	if err := Struct(r, L("transport", "tcp"), snap, derived); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("one scrape took %d snapshots, want 1", calls)
	}
	want := `# HELP t_busy_seconds Busy.
# TYPE t_busy_seconds gauge
t_busy_seconds{transport="tcp"} 1.5
# HELP t_double_total Twice the hits.
# TYPE t_double_total counter
t_double_total 14
# HELP t_hits_total Hits.
# TYPE t_hits_total counter
t_hits_total{transport="tcp"} 7
# HELP t_kinds_total By kind.
# TYPE t_kinds_total counter
t_kinds_total{transport="tcp",kind="scan"} 4
t_kinds_total{transport="tcp",kind="topk"} 5
# TYPE t_peak gauge
t_peak{transport="tcp"} 2
# HELP t_size Size.
# TYPE t_size gauge
t_size{transport="tcp"} 3
`
	if b.String() != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestStructRejectsWhatItCannotExpose(t *testing.T) {
	type untagged struct {
		Hits  uint64 `metric:"t_hits_total"`
		Fresh int64
	}
	type emptyName struct {
		Fresh float64 `metric:""`
	}
	type untaggedMap struct {
		Kinds map[string]int
	}
	type unlabelledMap struct {
		Kinds map[string]int `metric:"t_kinds_total"`
	}
	type labelledScalar struct {
		Hits uint64 `metric:"t_hits_total" label:"kind"`
	}
	type taggedString struct {
		Name string `metric:"t_name"`
	}
	for name, tc := range map[string]struct {
		register func(*Registry) error
		mention  string
	}{
		"untagged numeric field": {func(r *Registry) error { return Struct(r, nil, func() untagged { return untagged{} }) }, "untagged.Fresh"},
		"empty metric name":      {func(r *Registry) error { return Struct(r, nil, func() emptyName { return emptyName{} }) }, "emptyName.Fresh"},
		"untagged numeric map":   {func(r *Registry) error { return Struct(r, nil, func() untaggedMap { return untaggedMap{} }) }, "untaggedMap.Kinds"},
		"map without a label":    {func(r *Registry) error { return Struct(r, nil, func() unlabelledMap { return unlabelledMap{} }) }, "unlabelledMap.Kinds"},
		"label on a scalar":      {func(r *Registry) error { return Struct(r, nil, func() labelledScalar { return labelledScalar{} }) }, "labelledScalar.Hits"},
		"tagged non-numeric":     {func(r *Registry) error { return Struct(r, nil, func() taggedString { return taggedString{} }) }, "taggedString.Name"},
		"not a struct":           {func(r *Registry) error { return Struct(r, nil, func() int { return 0 }) }, "int"},
	} {
		r := NewRegistry()
		err := tc.register(r)
		if err == nil || !strings.Contains(err.Error(), tc.mention) {
			t.Errorf("%s: error %v, want one naming %s", name, err, tc.mention)
		}
		if len(r.Gather()) != 0 {
			t.Errorf("%s: a refused struct still registered metrics", name)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	for _, tc := range []struct{ name, value, want string }{
		{"newline", "a\nb", `a\nb`},
		{"quote", `say "hi"`, `say \"hi\"`},
		{"backslash", `C:\tmp`, `C:\\tmp`},
		{"backslash then n", `a\nb`, `a\\nb`},
		{"non-ASCII", "caffè/日本", "caffè/日本"},
		{"control byte", "a\x01b", "a\x01b"},
	} {
		r := NewRegistry()
		r.Counter("t_total", "", L("stream", tc.value), func() uint64 { return 1 })
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := "# TYPE t_total counter\nt_total{stream=\"" + tc.want + "\"} 1\n"; b.String() != want {
			t.Errorf("%s: exposition %q, want %q", tc.name, b.String(), want)
		}
	}
}
