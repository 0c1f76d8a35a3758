// Package httpapi implements Muppet's HTTP service: the slate-read
// API of Section 4.4 of the paper (fetch live slates by updater name
// and key), the basic status endpoint of Section 4.5 (largest queue
// depths), the streaming ingress endpoint POST /ingest, which accepts
// JSON event batches and feeds them through the engines' batched
// ingestion path, and the relational query endpoint POST /query,
// which runs scan/filter/project/aggregate pipelines over live slates
// (one-shot NDJSON answers, or a continuous stream with "watch").
//
// The URI of a slate fetch includes the name of the updater and the
// key of the slate: GET /slate/{updater}/{key}. The fetch is served
// from the engine's live slate cache — forwarding internally to the
// owning machine — rather than from the durable key-value store, to
// ensure an up-to-date reply.
package httpapi

import (
	"encoding/json"
	"errors"
	"net/http"
	"strings"

	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/obs"
	"muppet/internal/query"
	"muppet/internal/recovery"
	"muppet/internal/slate"
)

// SlateReader is the engine-side surface the HTTP service needs. Both
// Muppet engines satisfy it.
type SlateReader interface {
	// Slate resolves the live slate for <updater, key> wherever it is
	// cached; nil means no such slate.
	Slate(updater, key string) []byte
	// LargestQueues reports the deepest event queue per machine.
	LargestQueues() map[string]int
}

// Updaters is implemented by engines that can enumerate their update
// functions; the status endpoint lists them when available.
type Updaters interface {
	Updaters() []string
}

// BulkReader is implemented by engines that support bulk slate dumps
// from the durable store (Section 5 "Bulk Reading of Slates"); when
// available, GET /slates/{updater} serves a JSON object of every
// stored slate, flushed first so the dump is current.
type BulkReader interface {
	FlushSlates()
	StoredSlates(updater string) map[string][]byte
}

// Ingester is implemented by engines exposing the batched ingestion
// path; when available, POST /ingest accepts a JSON array of events
// and returns the batch accounting.
type Ingester interface {
	IngestBatch(evs []event.Event) (accepted int, err error)
}

// IngestEvent is the JSON shape of one event posted to /ingest.
type IngestEvent struct {
	// Stream is the destination input stream (required).
	Stream string `json:"stream"`
	// TS is the event's global timestamp.
	TS int64 `json:"ts,omitempty"`
	// Key is the grouping key.
	Key string `json:"key"`
	// Value is the event payload as a UTF-8 string.
	Value string `json:"value,omitempty"`
}

// IngestReply is the JSON response of POST /ingest.
type IngestReply struct {
	// Events is the number of events in the posted batch.
	Events int `json:"events"`
	// Accepted is the number fully accepted by the engine.
	Accepted int `json:"accepted"`
	// Dropped is the number of dropped deliveries, when any.
	Dropped int `json:"dropped,omitempty"`
	// Reasons tallies dropped deliveries by loss reason.
	Reasons map[string]int `json:"reasons,omitempty"`
	// Error carries a non-partial ingestion failure.
	Error string `json:"error,omitempty"`
}

// NodeInfo is implemented by engines that can describe the cluster
// node they run on; GET /status then reports the transport in use, the
// full member list, and the machines this node hosts — on a networked
// cluster each node answers for itself.
type NodeInfo interface {
	TransportName() string
	MachineNames() []string
	LocalNames() []string
}

// RecoveryReporter is implemented by engines running the unified
// recovery subsystem; when available, GET /recovery serves its status
// (ring membership, failover and rejoin counts, loss totals, and the
// latest incident reports) so operators can observe failover.
type RecoveryReporter interface {
	RecoveryStatus() recovery.Status
}

// MetricsSource is implemented by engines carrying an observability
// registry; when available, GET /metrics serves the Prometheus text
// exposition and GET /statsz a structured JSON snapshot of the same
// collectors.
type MetricsSource interface {
	Metrics() *obs.Registry
}

// CacheReporter is implemented by engines that can aggregate their
// slate-cache statistics; GET /status then includes the cache counters
// (hits, misses, store traffic, codec errors).
type CacheReporter interface {
	SlateCacheStats() slate.CacheStats
}

// ClusterReporter is implemented by engines that expose their cluster
// node; GET /status then includes delivery counters and — on a TCP
// node — the transport's dial/frame/byte counters.
type ClusterReporter interface {
	Cluster() *cluster.Cluster
}

// OutboxReporter is implemented by engines that batch remote-bound
// deliveries in per-destination outboxes; GET /status then includes
// the deliveries queued per remote machine.
type OutboxReporter interface {
	OutboxDepths() map[string]int
}

// Querier is implemented by engines carrying the query subsystem;
// when available, POST /query answers one-shot relational queries
// (scan, filter, project, aggregate) over live slates, cluster-wide.
type Querier interface {
	Query(spec query.Spec) (*query.Result, error)
}

// QueryWatcher is implemented by engines supporting continuous
// queries; POST /query with "watch": true then streams the re-evaluated
// result as NDJSON — one marshaled query.Result per line, emitted only
// when the answer changes — until the client disconnects.
type QueryWatcher interface {
	QueryWatch(spec query.Spec, buf int) (*engine.Subscription, func(), error)
}

// QueryLine is one NDJSON line of a one-shot /query response: exactly
// one field is set per line. Rows and groups stream first; the Stats
// line terminates the answer.
type QueryLine struct {
	Row   *query.Row       `json:"row,omitempty"`
	Group *query.Group     `json:"group,omitempty"`
	Stats *query.ExecStats `json:"stats,omitempty"`
}

// want resolves an optional engine capability: it returns the engine
// as T when implemented, and otherwise answers 501 Not Implemented
// naming the missing feature. Every optional endpoint gates through
// it so "not supported" stays one code path.
func want[T any](w http.ResponseWriter, r SlateReader, feature string) (T, bool) {
	t, ok := any(r).(T)
	if !ok {
		http.Error(w, feature+" not supported", http.StatusNotImplemented)
	}
	return t, ok
}

// metricsOf resolves the engine's observability registry, answering
// 501 when the engine carries none (either no MetricsSource or a nil
// registry).
func metricsOf(w http.ResponseWriter, r SlateReader) (*obs.Registry, bool) {
	ms, ok := want[MetricsSource](w, r, "metrics")
	if !ok {
		return nil, false
	}
	if reg := ms.Metrics(); reg != nil {
		return reg, true
	}
	http.Error(w, "metrics not supported", http.StatusNotImplemented)
	return nil, false
}

// Handler returns the HTTP handler serving slate fetches, status, and
// batched ingestion.
//
//	GET  /slate/{updater}/{key} -> 200 slate bytes | 404
//	GET  /status                -> 200 JSON {queues, updaters, cache, transport stats}
//	GET  /recovery              -> 200 JSON recovery.Status | 501
//	GET  /metrics               -> 200 Prometheus text exposition | 501
//	GET  /statsz                -> 200 JSON []obs.SnapshotEntry | 501
//	POST /ingest                -> 200 JSON IngestReply | 400 | 501
//	POST /query                 -> 200 NDJSON QueryLine stream | 400 | 501
func Handler(r SlateReader) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, req *http.Request) {
		ing, ok := want[Ingester](w, r, "batched ingestion")
		if !ok {
			return
		}
		if req.Method != http.MethodPost {
			http.Error(w, "POST a JSON array of events", http.StatusMethodNotAllowed)
			return
		}
		var in []IngestEvent
		if err := json.NewDecoder(req.Body).Decode(&in); err != nil {
			http.Error(w, "bad event batch: "+err.Error(), http.StatusBadRequest)
			return
		}
		evs := make([]event.Event, len(in))
		for i, e := range in {
			evs[i] = event.Event{
				Stream: e.Stream,
				TS:     event.Timestamp(e.TS),
				Key:    e.Key,
			}
			if e.Value != "" {
				evs[i].Value = []byte(e.Value)
			}
		}
		accepted, err := ing.IngestBatch(evs)
		reply := IngestReply{Events: len(evs), Accepted: accepted}
		status := http.StatusOK
		var be *ingress.BatchError
		switch {
		case err == nil:
		case errors.As(err, &be):
			// Partial acceptance is a successful exchange; the body
			// carries the loss accounting.
			reply.Dropped = be.Dropped
			reply.Reasons = be.Reasons
		default:
			reply.Error = err.Error()
			status = http.StatusBadRequest
			var nie *ingress.NotInputError
			if !errors.As(err, &nie) {
				// Stopped engine or other non-caller fault.
				status = http.StatusServiceUnavailable
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(reply)
	})
	mux.HandleFunc("/slate/", func(w http.ResponseWriter, req *http.Request) {
		rest := strings.TrimPrefix(req.URL.Path, "/slate/")
		parts := strings.SplitN(rest, "/", 2)
		if len(parts) != 2 || parts[0] == "" || parts[1] == "" {
			http.Error(w, "usage: /slate/{updater}/{key}", http.StatusBadRequest)
			return
		}
		updater, key := parts[0], parts[1]
		v := r.Slate(updater, key)
		if v == nil {
			http.Error(w, "no slate for "+updater+"/"+key, http.StatusNotFound)
			return
		}
		// The engine materializes the reply through the slate codec
		// (typed slates re-encode at most once per read); JSONCodec
		// output — and every hand-rolled JSON slate — is served as
		// JSON, anything else as an opaque blob.
		if json.Valid(v) {
			w.Header().Set("Content-Type", "application/json")
		} else {
			w.Header().Set("Content-Type", "application/octet-stream")
		}
		w.Write(v)
	})
	mux.HandleFunc("/slates/", func(w http.ResponseWriter, req *http.Request) {
		br, ok := want[BulkReader](w, r, "bulk slate reads")
		if !ok {
			return
		}
		updater := strings.TrimPrefix(req.URL.Path, "/slates/")
		if updater == "" || strings.Contains(updater, "/") {
			http.Error(w, "usage: /slates/{updater}", http.StatusBadRequest)
			return
		}
		br.FlushSlates()
		dump := br.StoredSlates(updater)
		if dump == nil {
			http.Error(w, "no durable store configured", http.StatusNotFound)
			return
		}
		// []byte values marshal as base64 strings, keeping arbitrary
		// slate blobs JSON-safe.
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(dump)
	})
	mux.HandleFunc("/recovery", func(w http.ResponseWriter, req *http.Request) {
		rr, ok := want[RecoveryReporter](w, r, "recovery status")
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rr.RecoveryStatus())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		reg, ok := metricsOf(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, req *http.Request) {
		reg, ok := metricsOf(w, r)
		if !ok {
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(reg.SnapshotJSON())
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
		q, ok := want[Querier](w, r, "queries")
		if !ok {
			return
		}
		if req.Method != http.MethodPost {
			http.Error(w, "POST a JSON query spec", http.StatusMethodNotAllowed)
			return
		}
		var spec query.Spec
		if err := json.NewDecoder(req.Body).Decode(&spec); err != nil {
			http.Error(w, "bad query spec: "+err.Error(), http.StatusBadRequest)
			return
		}
		if spec.Watch {
			serveQueryWatch(w, req, r, spec)
			return
		}
		res, err := q.Query(spec)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		// Stream the answer as NDJSON: rows first (scans), then groups
		// (aggregates), then one stats line closing the response.
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for i := range res.Rows {
			enc.Encode(QueryLine{Row: &res.Rows[i]})
		}
		for i := range res.Groups {
			enc.Encode(QueryLine{Group: &res.Groups[i]})
		}
		enc.Encode(QueryLine{Stats: &res.Stats})
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, req *http.Request) {
		st := statusReply{Queues: r.LargestQueues()}
		if u, ok := r.(Updaters); ok {
			st.Updaters = u.Updaters()
		}
		if n, ok := r.(NodeInfo); ok {
			st.Transport = n.TransportName()
			st.Machines = n.MachineNames()
			st.Local = n.LocalNames()
		}
		if cr, ok := r.(CacheReporter); ok {
			cs := cr.SlateCacheStats()
			st.Cache = &cs
		}
		if or, ok := r.(OutboxReporter); ok {
			st.Outbox = or.OutboxDepths()
		}
		if clr, ok := r.(ClusterReporter); ok {
			if c := clr.Cluster(); c != nil {
				st.Sends = c.Sends()
				st.Recvs = c.Recvs()
				st.RecvDeliveries = c.RecvDeliveries()
				ds := c.DeliveryStats()
				st.Delivery = &ds
				if tcp := cluster.UnwrapTCP(c.Transport()); tcp != nil {
					ts := tcp.Stats()
					st.TCP = &ts
				}
				if ch := cluster.UnwrapChaos(c.Transport()); ch != nil {
					cs := ch.Stats()
					st.Chaos = &cs
				}
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(st)
	})
	return mux
}

// serveQueryWatch runs a continuous query over the engine's watch
// machinery, streaming one marshaled query.Result per NDJSON line as
// the answer changes. The stream stays open until the client goes
// away (request context done) or the engine stops (subscription
// channel closed); each line is flushed immediately so `-watch`
// clients see deltas live.
func serveQueryWatch(w http.ResponseWriter, req *http.Request, r SlateReader, spec query.Spec) {
	qw, ok := want[QueryWatcher](w, r, "continuous queries")
	if !ok {
		return
	}
	sub, stop, err := qw.QueryWatch(spec, 0)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	defer stop()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case <-req.Context().Done():
			return
		case ev, open := <-sub.C():
			if !open {
				return
			}
			w.Write(ev.Value)
			w.Write([]byte("\n"))
			if fl != nil {
				fl.Flush()
			}
		}
	}
}

type statusReply struct {
	// Queues maps machine name to its largest event-queue depth.
	Queues map[string]int `json:"queues"`
	// Updaters lists the application's update functions.
	Updaters []string `json:"updaters,omitempty"`
	// Transport names the cluster transport ("in-process" or "tcp").
	Transport string `json:"transport,omitempty"`
	// Machines is the full cluster member list.
	Machines []string `json:"machines,omitempty"`
	// Local is the subset of machines this node hosts.
	Local []string `json:"local,omitempty"`
	// Cache aggregates the node's slate-cache counters, including the
	// codec decode/encode error totals.
	Cache *slate.CacheStats `json:"cache,omitempty"`
	// Outbox maps each remote machine to the deliveries queued for its
	// sender (absent on an all-local engine).
	Outbox map[string]int `json:"outbox,omitempty"`
	// Sends counts this node's machine-addressed sends, Recvs the
	// remote-origin batches it received and RecvDeliveries the deliveries
	// they carried.
	Sends          uint64 `json:"sends,omitempty"`
	Recvs          uint64 `json:"recvs,omitempty"`
	RecvDeliveries uint64 `json:"recv_deliveries,omitempty"`
	// Delivery carries the node's resilient-delivery counters: retries,
	// transient faults, exhausted budgets, and dedup-window absorption.
	Delivery *cluster.DeliveryStats `json:"delivery,omitempty"`
	// TCP carries the transport's dial/frame/byte counters on a
	// networked node.
	TCP *cluster.TCPStats `json:"tcp,omitempty"`
	// Chaos carries the fault-injection counters when the node's
	// transport is wrapped in a chaos layer.
	Chaos *cluster.ChaosStats `json:"chaos,omitempty"`
}
