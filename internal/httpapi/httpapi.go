// Package httpapi implements Muppet's HTTP service: the slate-read
// API of Section 4.4 of the paper (fetch live slates by updater name
// and key), the basic status endpoint of Section 4.5 (largest queue
// depths, plus the node's identity), the metrics endpoints every
// engine counter is read from, the streaming ingress endpoint POST
// /ingest, which accepts JSON event batches and feeds them through the
// engines' batched ingestion path, and the relational query endpoint
// POST /query, which runs scan/filter/project/aggregate pipelines over
// live slates (one-shot NDJSON answers, or a continuous stream with
// "watch").
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
)

// Engine is the engine surface the HTTP service calls: exactly the
// methods its endpoints use. Both Muppet engines satisfy it.
type Engine interface {
	// Slate resolves the live slate for <updater, key> wherever it is
	// cached; nil means no such slate.
	Slate(updater, key string) []byte
	// LargestQueues reports the deepest event queue per hosted machine.
	LargestQueues() map[string]int
	// Updaters lists the application's update functions.
	Updaters() []string
	// FlushSlates and StoredSlates serve the bulk slate dump of Section
	// 5 "Bulk Reading of Slates"; StoredSlates is nil without a store.
	FlushSlates()
	StoredSlates(updater string) map[string][]byte
	// IngestBatch is the batched ingestion path.
	IngestBatch(evs []event.Event) (accepted int, err error)
	// RecoveryStatus snapshots the recovery subsystem.
	RecoveryStatus() recovery.Status
	// Metrics is the registry every engine statistic is read from.
	Metrics() *obs.Registry
	// Query answers one relational query over live slates,
	// cluster-wide.
	Query(spec query.Spec) (*query.Result, error)
	// QueryWatch starts a continuous query whose changed answers are
	// published to the subscription.
	QueryWatch(spec query.Spec, buf int) (*engine.Subscription, func(), error)
	// Cluster is the node the engine runs on.
	Cluster() *cluster.Cluster
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

// QueryLine is one NDJSON line of a one-shot /query response: exactly
// one field is set per line. Rows and groups stream first; the Stats
// line terminates the answer.
type QueryLine struct {
	Row   *query.Row       `json:"row,omitempty"`
	Group *query.Group     `json:"group,omitempty"`
	Stats *query.ExecStats `json:"stats,omitempty"`
}

// Handler returns the HTTP handler serving the engine e.
//
//	GET  /slate/{updater}/{key} -> 200 slate bytes | 404
//	GET  /slates/{updater}      -> 200 JSON {key: base64 slate} | 404 without a store
//	GET  /status                -> 200 JSON {queues, updaters, transport, machines, local}
//	GET  /recovery              -> 200 JSON recovery.Status
//	GET  /metrics               -> 200 Prometheus text exposition (every engine counter)
//	GET  /statsz                -> 200 JSON []obs.SnapshotEntry of the same
//	POST /ingest                -> 200 JSON IngestReply | 400 | 503
//	POST /query                 -> 200 NDJSON QueryLine stream | 400
func Handler(e Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", func(w http.ResponseWriter, req *http.Request) {
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
		for i, ev := range in {
			evs[i] = event.Event{
				Stream: ev.Stream,
				TS:     event.Timestamp(ev.TS),
				Key:    ev.Key,
			}
			if ev.Value != "" {
				evs[i].Value = []byte(ev.Value)
			}
		}
		accepted, err := e.IngestBatch(evs)
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
		v := e.Slate(updater, key)
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
		updater := strings.TrimPrefix(req.URL.Path, "/slates/")
		if updater == "" || strings.Contains(updater, "/") {
			http.Error(w, "usage: /slates/{updater}", http.StatusBadRequest)
			return
		}
		e.FlushSlates()
		dump := e.StoredSlates(updater)
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
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.RecoveryStatus())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		e.Metrics().WritePrometheus(w)
	})
	mux.HandleFunc("/statsz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(e.Metrics().SnapshotJSON())
	})
	mux.HandleFunc("/query", func(w http.ResponseWriter, req *http.Request) {
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
			serveQueryWatch(w, req, e, spec)
			return
		}
		res, err := e.Query(spec)
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
		clu := e.Cluster()
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(statusReply{
			Queues:    e.LargestQueues(),
			Updaters:  e.Updaters(),
			Transport: clu.TransportName(),
			Machines:  clu.MachineNames(),
			Local:     clu.LocalNames(),
		})
	})
	return mux
}

// serveQueryWatch runs a continuous query over the engine's watch
// machinery, streaming one marshaled query.Result per NDJSON line as
// the answer changes. The stream stays open until the client goes
// away (request context done) or the engine stops (subscription
// channel closed); each line is flushed immediately so `-watch`
// clients see deltas live.
func serveQueryWatch(w http.ResponseWriter, req *http.Request, e Engine, spec query.Spec) {
	sub, stop, err := e.QueryWatch(spec, 0)
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

// statusReply is the basic status of Section 4.5 — the largest event
// queues — and the node's identity. Every counter is read from
// /metrics instead.
type statusReply struct {
	// Queues maps each hosted machine to its largest event-queue depth.
	Queues map[string]int `json:"queues"`
	// Updaters lists the application's update functions.
	Updaters []string `json:"updaters"`
	// Transport names the cluster transport ("in-process" or "tcp").
	Transport string `json:"transport"`
	// Machines is the full cluster member list.
	Machines []string `json:"machines"`
	// Local is the subset of machines this node hosts.
	Local []string `json:"local"`
}
