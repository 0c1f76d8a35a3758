package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): # HELP and # TYPE headers once
// per metric name, then one sample line per label set. Summaries
// expand to {quantile=...} samples plus _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	lastName := ""
	for _, m := range r.Gather() {
		if m.Name != lastName {
			if m.Help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.Name, escapeHelp(m.Help))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.Name, m.Type)
			lastName = m.Name
		}
		if m.Hist == nil {
			fmt.Fprintf(&b, "%s%s %s\n", m.Name, promLabels(m.Labels, "", 0), promFloat(m.Value))
			continue
		}
		for _, q := range m.Hist.Quantiles {
			fmt.Fprintf(&b, "%s%s %s\n", m.Name, promLabels(m.Labels, "quantile", q.Q), promFloat(q.V))
		}
		fmt.Fprintf(&b, "%s_sum%s %s\n", m.Name, promLabels(m.Labels, "", 0), promFloat(m.Hist.Sum))
		fmt.Fprintf(&b, "%s_count%s %d\n", m.Name, promLabels(m.Labels, "", 0), m.Hist.Count)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promFloat renders a float without the exponent noise %g gives small
// integral counters.
func promFloat(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// promLabels renders a label set, optionally with a trailing quantile
// label (quantileKey non-empty).
func promLabels(ls Labels, quantileKey string, q float64) string {
	if len(ls) == 0 && quantileKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%s\"", l.Key, labelEscaper.Replace(l.Value))
	}
	if quantileKey != "" {
		if len(ls) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=\"%g\"", quantileKey, q)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, "\\", "\\\\")
	return strings.ReplaceAll(s, "\n", "\\n")
}

// labelEscaper escapes a label value as the 0.0.4 text format defines:
// backslash, double quote and line feed; every other byte, UTF-8
// included, goes out as it is.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// SnapshotEntry is one metric in the /statsz JSON snapshot. Counters
// and gauges set Value; summaries set the histogram fields.
type SnapshotEntry struct {
	Name   string            `json:"name"`
	Type   string            `json:"type"`
	Labels map[string]string `json:"labels,omitempty"`
	Value  *float64          `json:"value,omitempty"`
	Count  *uint64           `json:"count,omitempty"`
	Sum    *float64          `json:"sum,omitempty"`
	Min    *float64          `json:"min,omitempty"`
	Max    *float64          `json:"max,omitempty"`
	P50    *float64          `json:"p50,omitempty"`
	P90    *float64          `json:"p90,omitempty"`
	P95    *float64          `json:"p95,omitempty"`
	P99    *float64          `json:"p99,omitempty"`
}

// SnapshotJSON gathers the registry into the /statsz wire shape.
func (r *Registry) SnapshotJSON() []SnapshotEntry {
	ms := r.Gather()
	out := make([]SnapshotEntry, 0, len(ms))
	for _, m := range ms {
		e := SnapshotEntry{Name: m.Name, Type: m.Type.String()}
		if len(m.Labels) > 0 {
			e.Labels = make(map[string]string, len(m.Labels))
			for _, l := range m.Labels {
				e.Labels[l.Key] = l.Value
			}
		}
		if m.Hist == nil {
			v := m.Value
			e.Value = &v
		} else {
			h := *m.Hist
			e.Count, e.Sum, e.Min, e.Max = &h.Count, &h.Sum, &h.Min, &h.Max
			qs := make([]float64, 4)
			for i, q := range h.Quantiles {
				if i < 4 {
					qs[i] = q.V
				}
			}
			e.P50, e.P90, e.P95, e.P99 = &qs[0], &qs[1], &qs[2], &qs[3]
		}
		out = append(out, e)
	}
	return out
}
