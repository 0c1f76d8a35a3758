package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"muppet/internal/cluster"
	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/obs"
	"muppet/internal/query"
	"muppet/internal/recovery"
)

// fakeEngine implements Engine with canned answers; each test sets the
// fields its endpoint reads.
type fakeEngine struct {
	slates   map[string][]byte
	queues   map[string]int
	status   recovery.Status
	reg      *obs.Registry
	clu      *cluster.Cluster
	got      []event.Event
	ingest   func(evs []event.Event) (int, error)
	spec     query.Spec
	res      *query.Result
	queryErr error
	sink     *engine.Sink
}

func (f *fakeEngine) Slate(updater, key string) []byte              { return f.slates[updater+"/"+key] }
func (f *fakeEngine) LargestQueues() map[string]int                 { return f.queues }
func (f *fakeEngine) Updaters() []string                            { return []string{"U1", "U2"} }
func (f *fakeEngine) FlushSlates()                                  {}
func (f *fakeEngine) StoredSlates(updater string) map[string][]byte { return nil }
func (f *fakeEngine) RecoveryStatus() recovery.Status               { return f.status }
func (f *fakeEngine) Metrics() *obs.Registry                        { return f.reg }
func (f *fakeEngine) Cluster() *cluster.Cluster                     { return f.clu }

func (f *fakeEngine) IngestBatch(evs []event.Event) (int, error) {
	f.got = append(f.got, evs...)
	if f.ingest != nil {
		return f.ingest(evs)
	}
	return len(evs), nil
}

func (f *fakeEngine) Query(spec query.Spec) (*query.Result, error) {
	f.spec = spec
	return f.res, f.queryErr
}

func (f *fakeEngine) QueryWatch(spec query.Spec, buf int) (*engine.Subscription, func(), error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	f.spec = spec
	sub := f.sink.Subscribe("_query/1", buf)
	return sub, func() { sub.Cancel() }, nil
}

// newFake returns a fake node hosting machine-00 of a two-machine
// cluster, with one slate and one queue depth.
func newFake() *fakeEngine {
	return &fakeEngine{
		slates: map[string][]byte{"U1/walmart": []byte(`{"count":42}`)},
		queues: map[string]int{"machine-00": 7},
		reg:    obs.NewRegistry(),
		clu: cluster.New(cluster.Config{
			Names:     []string{"machine-00", "machine-01"},
			Local:     []string{"machine-00"},
			Transport: cluster.NewInProc(),
		}),
		sink: engine.NewSink(),
	}
}

func newServer() (*httptest.Server, *fakeEngine) {
	f := newFake()
	return httptest.NewServer(Handler(f)), f
}

func TestSlateFetchFound(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/slate/U1/walmart")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != `{"count":42}` {
		t.Fatalf("body = %q", body)
	}
}

func TestSlateFetchMissing(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/slate/U1/nothere")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSlateFetchBadPath(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	for _, path := range []string{"/slate/", "/slate/onlyupdater", "/slate//key"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestSlateKeyMayContainSlashes(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.slates["U1/topic/14"] = []byte("7")
	resp, err := http.Get(srv.URL + "/slate/U1/topic/14")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "7" {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
}

// /status is the basic status of Section 4.5 plus the node's identity,
// and nothing else: every counter is read from /metrics.
func TestStatusEndpoint(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range st {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	if want := []string{"local", "machines", "queues", "transport", "updaters"}; !slices.Equal(keys, want) {
		t.Fatalf("/status keys = %v, want %v", keys, want)
	}
	for key, want := range map[string]string{
		"queues":    `{"machine-00":7}`,
		"updaters":  `["U1","U2"]`,
		"transport": `"in-process"`,
		"machines":  `["machine-00","machine-01"]`,
		"local":     `["machine-00"]`,
	} {
		if got := string(st[key]); got != want {
			t.Errorf("/status %s = %s, want %s", key, got, want)
		}
	}
}

func TestRecoveryStatusServed(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.status = recovery.Status{
		Machines: []recovery.MachineStatus{
			{Name: "machine-00", Alive: true, InRing: true},
			{Name: "machine-01", Alive: false, InRing: false, Failed: true},
		},
		Failovers: 1,
		DirtyLost: 3,
	}
	resp, err := http.Get(srv.URL + "/recovery")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var got recovery.Status
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Failovers != 1 || got.DirtyLost != 3 || len(got.Machines) != 2 {
		t.Fatalf("decoded status = %+v", got)
	}
	if !got.Machines[1].Failed || got.Machines[1].Alive {
		t.Fatalf("machine view = %+v", got.Machines[1])
	}
}

func TestMetricsEndpoints(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.reg.GaugeInt("muppet_outbox_depth", "Deliveries queued.", obs.L("machine", "machine-01"), func() int64 { return 4 })
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `muppet_outbox_depth{machine="machine-01"} 4`) {
		t.Fatalf("/metrics = %s", body)
	}
	resp, err = http.Get(srv.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap []obs.SnapshotEntry
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil || len(snap) != 1 || snap[0].Name != "muppet_outbox_depth" {
		t.Fatalf("/statsz = %+v, %v", snap, err)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	body := `[{"stream":"S1","ts":5,"key":"a","value":"checkin:Walmart"},{"stream":"S1","ts":6,"key":"b"}]`
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var reply IngestReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Events != 2 || reply.Accepted != 2 || reply.Dropped != 0 {
		t.Fatalf("reply = %+v", reply)
	}
	if len(f.got) != 2 {
		t.Fatalf("engine saw %d events", len(f.got))
	}
	if f.got[0].Stream != "S1" || f.got[0].TS != 5 || f.got[0].Key != "a" || string(f.got[0].Value) != "checkin:Walmart" {
		t.Fatalf("event decoded wrong: %+v", f.got[0])
	}
	if f.got[1].Value != nil {
		t.Fatalf("empty value should decode to nil, got %q", f.got[1].Value)
	}
}

// TestIngestPartialBatchReportsReasons: an engine that accepts all but
// one delivery of every batch answers 200 with the loss accounting.
func TestIngestPartialBatchReportsReasons(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.ingest = func(evs []event.Event) (int, error) {
		return len(evs) - 1, &ingress.BatchError{
			Events: len(evs), Accepted: len(evs) - 1, Dropped: 1,
			Reasons: map[string]int{"batch-partial": 1},
		}
	}
	resp, err := http.Post(srv.URL+"/ingest", "application/json",
		strings.NewReader(`[{"stream":"S1","key":"a"},{"stream":"S1","key":"b"}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial acceptance should be 200, got %d", resp.StatusCode)
	}
	var reply IngestReply
	json.NewDecoder(resp.Body).Decode(&reply)
	if reply.Accepted != 1 || reply.Dropped != 1 || reply.Reasons["batch-partial"] != 1 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestIngestBadJSON(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

// failWith makes every ingest fail with err.
func (f *fakeEngine) failWith(err error) {
	f.ingest = func([]event.Event) (int, error) { return 0, err }
}

func TestIngestNotInputStream(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.failWith(&ingress.NotInputError{Stream: "S9"})
	resp, err := http.Post(srv.URL+"/ingest", "application/json",
		strings.NewReader(`[{"stream":"S9","key":"a"}]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var reply IngestReply
	json.NewDecoder(resp.Body).Decode(&reply)
	if reply.Error == "" {
		t.Fatal("error missing from reply")
	}
}

func TestIngestStoppedEngineIs503(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.failWith(ingress.ErrStopped)
	resp, err := http.Post(srv.URL+"/ingest", "application/json",
		strings.NewReader(`[{"stream":"S1","key":"a"}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
}

func TestIngestRejectsGet(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d, want 405", resp.StatusCode)
	}
}

// TestStatusReportsNodeInfo: on a networked node the identity fields
// name the transport, the whole member list, and the hosted subset.
func TestStatusReportsNodeInfo(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.clu = cluster.New(cluster.Config{
		Names:     []string{"machine-00", "machine-01", "machine-02"},
		Local:     []string{"machine-01"},
		Transport: cluster.NewChaos(cluster.NewInProc(), cluster.ChaosConfig{}),
	})
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Transport string   `json:"transport"`
		Machines  []string `json:"machines"`
		Local     []string `json:"local"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Transport != "chaos+in-process" {
		t.Fatalf("transport = %q", st.Transport)
	}
	if len(st.Machines) != 3 || st.Machines[0] != "machine-00" {
		t.Fatalf("machines = %v", st.Machines)
	}
	if len(st.Local) != 1 || st.Local[0] != "machine-01" {
		t.Fatalf("local = %v", st.Local)
	}
}

func TestQueryRejectsGetAndBadSpec(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.res = &query.Result{}
	resp, err := http.Get(srv.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{not json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad spec status = %d, want 400", resp.StatusCode)
	}
}

func TestQueryStreamsRowsGroupsAndStats(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.res = &query.Result{
		Rows:   []query.Row{{Key: "a", Value: json.RawMessage(`1`)}},
		Groups: []query.Group{{Key: "Walmart", Count: 10}},
		Stats:  query.ExecStats{RowsScanned: 3, RowsReturned: 2},
	}
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"updater":"U1","agg":"topk","k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type = %q", ct)
	}
	if f.spec.Updater != "U1" || f.spec.Agg != "topk" || f.spec.K != 3 {
		t.Fatalf("spec decoded wrong: %+v", f.spec)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %s", len(lines), body)
	}
	var last QueryLine
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Stats == nil || last.Stats.RowsScanned != 3 {
		t.Fatalf("final line is not the stats: %s", lines[2])
	}
	var first QueryLine
	json.Unmarshal([]byte(lines[0]), &first)
	if first.Row == nil || first.Row.Key != "a" {
		t.Fatalf("first line is not the row: %s", lines[0])
	}
}

func TestQueryErrorIs400(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	f.queryErr = errors.New("no updater \"U9\"")
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"updater":"U9"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "U9") {
		t.Fatalf("status=%d body=%q", resp.StatusCode, body)
	}
}

func TestQueryWatchStreamsChangedAnswers(t *testing.T) {
	srv, f := newServer()
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/query", "application/json",
		strings.NewReader(`{"updater":"U1","watch":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for i := 1; i <= 2; i++ {
		payload, _ := json.Marshal(query.Result{Stats: query.ExecStats{RowsReturned: uint64(i)}})
		f.sink.Record(event.Event{Stream: "_query/1", Key: "U1", Value: payload})
	}
	sc := bufio.NewScanner(resp.Body)
	for i := 1; i <= 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended before line %d: %v", i, sc.Err())
		}
		var res query.Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if res.Stats.RowsReturned != uint64(i) {
			t.Fatalf("line %d = %s", i, sc.Text())
		}
	}
}
