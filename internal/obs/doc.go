// Package obs is the unified observability layer: a central metrics
// registry and a sampled event-lifecycle tracer (ingest accept, queue
// wait, map/update execution, emit, flush settle) feeding end-to-end
// latency percentiles per app/stream. It is a leaf package: it knows no
// subsystem and imports only internal/metrics, whose one Histogram[T]
// backs every summary.
//
// The stats structs are the metrics. A subsystem names each counter's
// metric on the field it already keeps,
//
//	Hits uint64 `metric:"muppet_slate_cache_hits_total" help:"Slate-cache hits."`
//
// and Struct(registry, labels, snapshot) exposes every tagged field: a
// counter when the name ends in _total, a gauge otherwise, a
// time.Duration in seconds, a map[string]N with label:"kind" as one
// sample per key. To add a metric, add a tagged field; nothing else. A
// numeric field with neither a tag nor metric:"-" fails Struct, field
// named, so none can be added unexposed.
//
// The registry is pull-based: collectors are sampled lazily at scrape
// time, so registration costs nothing on the hot path. Struct calls
// its snapshot function once per scrape, so the fields of one struct
// are mutually consistent. A histogram is registered with Summary,
// one registrar for durations (exported in seconds) and counts (raw
// units), and a scrape sees one consistent snapshot per histogram
// (metrics.Snapshot). Exposition is Prometheus text
// (WritePrometheus) and structured JSON (SnapshotJSON), served by
// httpapi as /metrics and /statsz.
//
// The tracer is off by default and samples one in N deliveries when
// enabled; a sampling miss costs one atomic add and no allocations,
// keeping the zero-allocation ingest hot path intact. Span objects are
// pooled and recycled on Finish.
package obs
