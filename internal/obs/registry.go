package obs

import (
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"muppet/internal/metrics"
)

// Label is one name/value pair attached to a metric.
type Label struct {
	Key   string
	Value string
}

// Labels is an ordered label set. Order is preserved in the
// exposition, so register labels in a stable order.
type Labels []Label

// L builds a label set from alternating key/value strings:
// L("machine", "m-00", "thread", "3").
func L(kv ...string) Labels {
	if len(kv)%2 != 0 {
		panic("obs: L requires an even number of strings")
	}
	ls := make(Labels, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		ls = append(ls, Label{Key: kv[i], Value: kv[i+1]})
	}
	return ls
}

func (ls Labels) key() string {
	s := ""
	for _, l := range ls {
		s += l.Key + "\x00" + l.Value + "\x00"
	}
	return s
}

// Type classifies a metric for exposition.
type Type int

// The three exposition types: monotonic counters, point-in-time
// gauges, and quantile summaries backed by metrics.Snapshot.
const (
	TypeCounter Type = iota
	TypeGauge
	TypeSummary
)

// String names the type as Prometheus spells it.
func (t Type) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeSummary:
		return "summary"
	default:
		return "untyped"
	}
}

// Quantile is one (q, value) pair of a summary sample.
type Quantile struct {
	Q float64
	V float64
}

// HistSample is a summary observation set sampled at scrape time from
// one consistent metrics.Snapshot.
type HistSample struct {
	Count     uint64
	Sum       float64
	Min       float64
	Max       float64
	Quantiles []Quantile
}

// Metric is one exposition sample: a named counter/gauge value or a
// summary (Hist non-nil).
type Metric struct {
	Name   string
	Help   string
	Type   Type
	Labels Labels
	Value  float64
	Hist   *HistSample
}

// Collector emits metrics at scrape time. Implementations must be safe
// for concurrent use; Collect may be called from multiple scrapes at
// once.
type Collector interface {
	Collect(emit func(Metric))
}

// CollectorFunc adapts a closure to the Collector interface.
type CollectorFunc func(emit func(Metric))

// Collect calls f.
func (f CollectorFunc) Collect(emit func(Metric)) { f(emit) }

// Registry is the central metric registry. Subsystems register lazy
// collectors once at construction; exporters call Gather (or the
// exposition helpers in prom.go) per scrape. All methods are safe for
// concurrent use.
type Registry struct {
	mu         sync.RWMutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector. Nil registries ignore the call so
// subsystems can register unconditionally.
func (r *Registry) Register(c Collector) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// Counter registers a lazily-sampled monotonic counter.
func (r *Registry) Counter(name, help string, labels Labels, fn func() uint64) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		emit(Metric{Name: name, Help: help, Type: TypeCounter, Labels: labels, Value: float64(fn())})
	}))
}

// Gauge registers a lazily-sampled point-in-time gauge.
func (r *Registry) Gauge(name, help string, labels Labels, fn func() float64) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		emit(Metric{Name: name, Help: help, Type: TypeGauge, Labels: labels, Value: fn()})
	}))
}

// GaugeInt registers an integer-valued gauge.
func (r *Registry) GaugeInt(name, help string, labels Labels, fn func() int64) {
	r.Gauge(name, help, labels, func() float64 { return float64(fn()) })
}

// Summary registers h — a metrics.Histogram, or the merge of its
// metrics.Shards — as a summary, snapshotted once per scrape: a
// time.Duration histogram in seconds, any other in its raw units. It
// is a function, not a Registry method, because methods take no type
// parameters.
func Summary[T ~int64](r *Registry, name, help string, labels Labels, h interface{ Snapshot() metrics.Snapshot[T] }) {
	r.Register(CollectorFunc(func(emit func(Metric)) {
		emit(summaryMetric(name, help, labels, h.Snapshot()))
	}))
}

// summaryMetric converts one snapshot to a summary sample.
func summaryMetric[T ~int64](name, help string, labels Labels, s metrics.Snapshot[T]) Metric {
	f := func(v T) float64 { return float64(v) }
	if _, ok := any(s.Sum).(time.Duration); ok {
		f = func(v T) float64 { return time.Duration(v).Seconds() }
	}
	return Metric{Name: name, Help: help, Type: TypeSummary, Labels: labels, Hist: &HistSample{
		Count: s.Count,
		Sum:   f(s.Sum),
		Min:   f(s.Min),
		Max:   f(s.Max),
		Quantiles: []Quantile{
			{0.5, f(s.P50)}, {0.9, f(s.P90)},
			{0.95, f(s.P95)}, {0.99, f(s.P99)},
		},
	}}
}

// Gather samples every collector and returns the metrics sorted by
// name then label set, ready for exposition.
func (r *Registry) Gather() []Metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	cs := make([]Collector, len(r.collectors))
	copy(cs, r.collectors)
	r.mu.RUnlock()
	var ms []Metric
	for _, c := range cs {
		c.Collect(func(m Metric) { ms = append(ms, m) })
	}
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].Name != ms[j].Name {
			return ms[i].Name < ms[j].Name
		}
		return ms[i].Labels.key() < ms[j].Labels.key()
	})
	return ms
}

// Find returns the first gathered sample named name whose labels include
// every pair of the alternating key/value strings in labels. It gathers
// every collector — a durable store's scans its live rows — so read it
// after a run, never inside a timed section or on a request path.
func (r *Registry) Find(name string, labels ...string) (Metric, bool) {
	want := L(labels...)
	for _, m := range r.Gather() {
		if m.Name == name && m.Labels.include(want) {
			return m, true
		}
	}
	return Metric{}, false
}

// include reports whether every label of want is in ls.
func (ls Labels) include(want Labels) bool {
	for _, w := range want {
		if !slices.Contains(ls, w) {
			return false
		}
	}
	return true
}

// Quantile returns the sample's q-quantile, or 0 when the summary does
// not carry q.
func (h *HistSample) Quantile(q float64) float64 {
	for _, x := range h.Quantiles {
		if x.Q == q {
			return x.V
		}
	}
	return 0
}

// Duration converts a value exposed in seconds back to a time.Duration,
// exactly for any duration under 52 days.
func Duration(seconds float64) time.Duration {
	return time.Duration(math.Round(seconds * float64(time.Second)))
}
