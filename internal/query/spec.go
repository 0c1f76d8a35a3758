package query

import (
	"fmt"
	"strings"
)

// Aggregation kinds for Spec.Agg. The zero value is a plain row scan.
const (
	AggNone  = ""
	AggCount = "count"
	AggSum   = "sum"
	AggMin   = "min"
	AggMax   = "max"
	AggTopK  = "topk"
)

// Pred is one σ predicate: field op literal. Comparisons are numeric
// when both sides parse as numbers, lexicographic otherwise.
type Pred struct {
	Field string `json:"field"`
	// Op is one of ==, !=, <, <=, >, >= (or their word forms eq, ne,
	// lt, le, gt, ge), contains, prefix.
	Op    string `json:"op"`
	Value string `json:"value"`
}

// Spec is one query: a scan over one updater's slates plus optional
// filter (Where), projection (Fields), and grouped aggregation (Agg).
// It travels as JSON — over POST /query and inside the cluster's query
// frame — so every field is tagged.
type Spec struct {
	// Updater names the update function whose slates are scanned.
	Updater string `json:"updater"`

	// Prefix restricts the scan to keys with this prefix; Start and End
	// bound it to [Start, End). All three compose; empty means
	// unbounded.
	Prefix string `json:"prefix,omitempty"`
	Start  string `json:"start,omitempty"`
	End    string `json:"end,omitempty"`

	// Where filters rows; every predicate must hold (conjunction).
	Where []Pred `json:"where,omitempty"`

	// Fields projects the output rows; empty returns the whole decoded
	// value. "key" addresses the slate key, dotted paths address nested
	// fields.
	Fields []string `json:"fields,omitempty"`

	// Agg selects the aggregation (AggNone for a row scan). By names
	// the field aggregated by sum/min/max and the ranking field for
	// topk (empty ranks by row count). GroupBy names the grouping
	// field; empty groups topk per slate key and everything else into
	// one global group. K bounds topk output (default 10).
	Agg     string `json:"agg,omitempty"`
	By      string `json:"by,omitempty"`
	GroupBy string `json:"group_by,omitempty"`
	K       int    `json:"k,omitempty"`

	// Limit bounds the number of rows a non-aggregate scan returns
	// (0 = unlimited).
	Limit int `json:"limit,omitempty"`

	// Watch asks for a continuous query: the standing Spec is
	// re-evaluated on flush epochs and a result is emitted whenever the
	// answer changes. EveryMS overrides the re-evaluation interval in
	// milliseconds (default: the engine's flush interval).
	Watch   bool `json:"watch,omitempty"`
	EveryMS int  `json:"every_ms,omitempty"`
}

// Normalize validates the spec and fills defaults. It is called on
// both sides of the wire, so a coordinator and a queried node agree on
// the effective plan.
func (s *Spec) Normalize() error {
	if s.Updater == "" {
		return fmt.Errorf("query: spec needs an updater")
	}
	switch s.Agg {
	case AggNone, AggCount:
	case AggSum, AggMin, AggMax:
		if s.By == "" {
			return fmt.Errorf("query: agg %q needs a by field", s.Agg)
		}
	case AggTopK:
		if s.K == 0 {
			s.K = 10
		}
		if s.K < 0 {
			return fmt.Errorf("query: topk needs k > 0")
		}
	default:
		return fmt.Errorf("query: unknown agg %q", s.Agg)
	}
	for _, p := range s.Where {
		if ops[p.Op] == 0 {
			return fmt.Errorf("query: unknown predicate op %q", p.Op)
		}
		if p.Field == "" {
			return fmt.Errorf("query: predicate needs a field")
		}
	}
	if s.Limit < 0 || s.EveryMS < 0 {
		return fmt.Errorf("query: negative limit or interval")
	}
	return nil
}

// Kind classifies the query for metrics: the aggregation name, or
// "scan" for a plain row scan.
func (s *Spec) Kind() string {
	if s.Agg == AggNone {
		return "scan"
	}
	return s.Agg
}

// FullRange reports whether the scan covers every key: no prefix, no
// bounds.
func (s *Spec) FullRange() bool { return s.Prefix == "" && s.Start == "" && s.End == "" }

// KeyInRange reports whether a slate key falls inside the scan's
// prefix/range bounds. Scan sources apply it before decoding a row.
func (s *Spec) KeyInRange(k string) bool {
	if s.Prefix != "" && !strings.HasPrefix(k, s.Prefix) {
		return false
	}
	if s.Start != "" && k < s.Start {
		return false
	}
	if s.End != "" && k >= s.End {
		return false
	}
	return true
}

// groupField is the effective γ group key field: GroupBy when set,
// the slate key for topk, one global group ("") otherwise.
func (s *Spec) groupField() string {
	if s.GroupBy != "" {
		return s.GroupBy
	}
	if s.Agg == AggTopK {
		return "key"
	}
	return ""
}

// keyGrouped reports whether groups are keyed by the slate key. Key
// ownership is disjoint across machines, so key-grouped partials can
// be truncated to K node-locally without losing exactness.
func (s *Spec) keyGrouped() bool { return s.groupField() == "key" }
