package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"muppet/internal/metrics"
)

// DefaultSampleRate traces one in this many deliveries when tracing is
// enabled without an explicit rate.
const DefaultSampleRate = 256

// TracerConfig is the off-by-default sampling knob surfaced as
// muppet.Config.Observability.
type TracerConfig struct {
	// Tracing enables sampled event-lifecycle spans. Off by default:
	// the hot path then pays nothing.
	Tracing bool
	// SampleRate traces one in N deliveries (DefaultSampleRate when
	// <= 0).
	SampleRate int
}

// traceHistCap bounds the retained samples per tracer histogram; spans
// are already sampled, and a smaller reservoir keeps the per-scrape
// sort cheap.
const traceHistCap = 8192

// Span is one sampled event's lifecycle record. Spans come from a pool
// and are recycled by Finish; callers must not retain one afterwards.
type Span struct {
	stream  string
	ingress int64 // Event.Ingress (UnixNano), 0 if unknown
	enq     int64 // stamped at queue admission
	deq     int64 // stamped by Start at dequeue
	exec    int64 // stamped by MarkExec after the map/update ran
	emit    int64 // stamped by MarkEmit after outputs routed
}

// MarkExec stamps the end of the map/update invocation. Safe on a nil
// span (untraced delivery).
func (s *Span) MarkExec() {
	if s != nil {
		s.exec = time.Now().UnixNano()
	}
}

// MarkEmit stamps the end of output routing. Safe on a nil span.
func (s *Span) MarkEmit() {
	if s != nil {
		s.emit = time.Now().UnixNano()
	}
}

// Tracer samples per-event lifecycle spans and aggregates them into
// stage histograms plus an end-to-end histogram per stream. All
// methods are safe on a nil receiver (tracing disabled) so call sites
// need no guards.
type Tracer struct {
	app  string
	rate uint64
	n    atomic.Uint64
	pool sync.Pool

	ingestAccept *metrics.Histogram[time.Duration]
	queueWait    *metrics.Histogram[time.Duration]
	exec         *metrics.Histogram[time.Duration]
	emit         *metrics.Histogram[time.Duration]
	flushSettle  *metrics.Histogram[time.Duration]

	mu      sync.RWMutex
	streams map[string]*metrics.Histogram[time.Duration]
}

// NewTracer builds a tracer for one app, or returns nil when tracing
// is disabled — the nil tracer is the zero-cost off switch.
func NewTracer(app string, cfg TracerConfig) *Tracer {
	if !cfg.Tracing {
		return nil
	}
	rate := cfg.SampleRate
	if rate <= 0 {
		rate = DefaultSampleRate
	}
	t := &Tracer{
		app:          app,
		rate:         uint64(rate),
		ingestAccept: metrics.NewHistogram[time.Duration](traceHistCap),
		queueWait:    metrics.NewHistogram[time.Duration](traceHistCap),
		exec:         metrics.NewHistogram[time.Duration](traceHistCap),
		emit:         metrics.NewHistogram[time.Duration](traceHistCap),
		flushSettle:  metrics.NewHistogram[time.Duration](traceHistCap),
		streams:      make(map[string]*metrics.Histogram[time.Duration]),
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// SampleRate reports the 1-in-N rate (0 when disabled).
func (t *Tracer) SampleRate() int {
	if t == nil {
		return 0
	}
	return int(t.rate)
}

// Sample decides whether the next delivery is traced: one atomic add,
// no allocation, so a miss leaves the zero-alloc hot path intact.
func (t *Tracer) Sample() bool {
	if t == nil {
		return false
	}
	return t.n.Add(1)%t.rate == 0
}

// Start begins a span for a sampled delivery at dequeue time. stream
// and ingress come from the event; enq is the queue-admission stamp
// (Event.TraceEnq).
func (t *Tracer) Start(stream string, ingress, enq int64) *Span {
	if t == nil {
		return nil
	}
	sp := t.pool.Get().(*Span)
	sp.stream, sp.ingress, sp.enq = stream, ingress, enq
	sp.deq = time.Now().UnixNano()
	sp.exec, sp.emit = 0, 0
	return sp
}

// Finish observes the span's stages (queue wait, execution, emit) and
// its end-to-end latency into the per-stream histogram, then recycles
// the span.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	if sp.enq > 0 && sp.deq >= sp.enq {
		t.queueWait.Observe(time.Duration(sp.deq - sp.enq))
	}
	done := sp.deq
	if sp.exec > 0 {
		t.exec.Observe(time.Duration(sp.exec - sp.deq))
		done = sp.exec
	}
	if sp.emit > 0 && sp.exec > 0 {
		t.emit.Observe(time.Duration(sp.emit - sp.exec))
		done = sp.emit
	}
	if sp.ingress > 0 && done > sp.ingress {
		t.streamHist(sp.stream).Observe(time.Duration(done - sp.ingress))
	}
	sp.stream = ""
	t.pool.Put(sp)
}

// ObserveIngestAccept records the latency of one sampled ingest call
// (the accept stage, before routing fans the batch out).
func (t *Tracer) ObserveIngestAccept(d time.Duration) {
	if t == nil {
		return
	}
	t.ingestAccept.Observe(d)
}

// ObserveFlushSettle records one group-commit flush round: the time
// for dirty slates to settle into the durable store.
func (t *Tracer) ObserveFlushSettle(d time.Duration) {
	if t == nil {
		return
	}
	t.flushSettle.Observe(d)
}

func (t *Tracer) streamHist(stream string) *metrics.Histogram[time.Duration] {
	t.mu.RLock()
	h := t.streams[stream]
	t.mu.RUnlock()
	if h != nil {
		return h
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h = t.streams[stream]; h == nil {
		h = metrics.NewHistogram[time.Duration](traceHistCap)
		t.streams[stream] = h
	}
	return h
}

// Collect implements Collector: the five stage summaries plus one
// end-to-end summary per stream seen so far, labelled app/stream.
func (t *Tracer) Collect(emit func(Metric)) {
	if t == nil {
		return
	}
	app := L("app", t.app)
	emit(summaryMetric("muppet_trace_ingest_accept_seconds",
		"Sampled latency of one ingest call (accept stage).", app, t.ingestAccept.Snapshot()))
	emit(summaryMetric("muppet_trace_queue_wait_seconds",
		"Sampled time from queue admission to dequeue.", app, t.queueWait.Snapshot()))
	emit(summaryMetric("muppet_trace_exec_seconds",
		"Sampled map/update execution time.", app, t.exec.Snapshot()))
	emit(summaryMetric("muppet_trace_emit_seconds",
		"Sampled output routing time after execution.", app, t.emit.Snapshot()))
	emit(summaryMetric("muppet_trace_flush_settle_seconds",
		"Group-commit flush round latency (dirty slates settling to the store).", app, t.flushSettle.Snapshot()))
	t.mu.RLock()
	streams := make(map[string]*metrics.Histogram[time.Duration], len(t.streams))
	for s, h := range t.streams {
		streams[s] = h
	}
	t.mu.RUnlock()
	for s, h := range streams {
		emit(summaryMetric("muppet_trace_e2e_seconds",
			"Sampled end-to-end latency from external ingress to processing completion.",
			L("app", t.app, "stream", s), h.Snapshot()))
	}
}
