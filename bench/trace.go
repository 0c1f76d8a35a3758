package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are
// recorded from the benchmark's own files only — around calls into the
// program, and by decorators on the app's map/update functions — and
// kept in memory until the run ends.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the recorder was created
	EndNs    int64  `json:"end_ns"`
}

// recorder collects spans. A nil *recorder is the untraced pass: every
// method is a no-op, so call sites need no branches.
type recorder struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	spans []span
	scope int // id of the enclosing scope span; new spans are its children
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, t0: time.Now()}
}

func (r *recorder) open(name string, start time.Time) int {
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: r.scope, Name: name, Workload: r.workload,
		StartNs: int64(start.Sub(r.t0)),
	})
	return len(r.spans)
}

// begin opens a span under the current scope and returns its id.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.open(name, now)
}

// end closes a span opened by begin or beginScope.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	sp := &r.spans[id-1]
	sp.EndNs = int64(now.Sub(r.t0))
	if r.scope == id {
		r.scope = sp.Parent
	}
}

// beginScope opens a span and makes it the parent of every span begun
// until it ends. Scopes nest and are opened from one goroutine.
func (r *recorder) beginScope(name string) int {
	if r == nil {
		return 0
	}
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.scope = r.open(name, now)
	return r.scope
}

// add records an already-finished span under the current scope.
func (r *recorder) add(name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.open(name, start)
	r.spans[id-1].EndNs = int64(end.Sub(r.t0))
}

// selfTimes returns, per span name, total duration and self time: a
// span's duration minus the part of it its direct children cover
// (children are clipped to the parent and overlapping children are
// merged, so concurrent children are not subtracted twice).
func selfTimes(spans []span) (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	children := make(map[int][]span)
	for _, sp := range spans {
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	for _, sp := range spans {
		d := sp.EndNs - sp.StartNs
		total[sp.Name] += time.Duration(d)
		self[sp.Name] += time.Duration(d - covered(sp, children[sp.ID]))
	}
	return total, self
}

// covered is the length of the union of the children's intervals
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var sum, hi int64 = 0, parent.StartNs
	for _, k := range kids {
		lo, end := max(k.StartNs, hi), min(k.EndNs, parent.EndNs)
		if end > lo {
			sum += end - lo
			hi = end
		}
	}
	return sum
}

// flush writes every recorded span to dir/trace.json.
func (r *recorder) flush(dir string) error {
	if r == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), data, 0o644)
}
