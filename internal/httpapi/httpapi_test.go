package httpapi

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"muppet/internal/engine"
	"muppet/internal/event"
	"muppet/internal/ingress"
	"muppet/internal/query"
	"muppet/internal/recovery"
)

type fakeEngine struct {
	slates map[string][]byte
	queues map[string]int
}

func (f *fakeEngine) Slate(updater, key string) []byte { return f.slates[updater+"/"+key] }
func (f *fakeEngine) LargestQueues() map[string]int    { return f.queues }
func (f *fakeEngine) Updaters() []string               { return []string{"U1", "U2"} }

func newServer() (*httptest.Server, *fakeEngine) {
	f := &fakeEngine{
		slates: map[string][]byte{"U1/walmart": []byte(`{"count":42}`)},
		queues: map[string]int{"machine-00": 7},
	}
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

func TestStatusEndpoint(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Queues   map[string]int `json:"queues"`
		Updaters []string       `json:"updaters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queues["machine-00"] != 7 {
		t.Fatalf("queues = %v", st.Queues)
	}
	if len(st.Updaters) != 2 {
		t.Fatalf("updaters = %v", st.Updaters)
	}
}

// recoveryEngine adds the RecoveryReporter surface to the fake.
type recoveryEngine struct {
	fakeEngine
	status recovery.Status
}

func (r *recoveryEngine) RecoveryStatus() recovery.Status { return r.status }

func TestRecoveryStatusServed(t *testing.T) {
	f := &recoveryEngine{status: recovery.Status{
		Machines: []recovery.MachineStatus{
			{Name: "machine-00", Alive: true, InRing: true},
			{Name: "machine-01", Alive: false, InRing: false, Failed: true},
		},
		Failovers: 1,
		DirtyLost: 3,
	}}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
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

func TestRecoveryStatusNotSupported(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/recovery")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// ingestingEngine extends fakeEngine with the batched-ingress surface.
type ingestingEngine struct {
	fakeEngine
	got  []event.Event
	fail error
}

func (f *ingestingEngine) IngestBatch(evs []event.Event) (int, error) {
	f.got = append(f.got, evs...)
	if f.fail != nil {
		return 0, f.fail
	}
	return len(evs), nil
}

func TestIngestNotSupportedWithoutIngester(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(`[]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

func TestIngestRoundTrip(t *testing.T) {
	f := &ingestingEngine{}
	srv := httptest.NewServer(Handler(f))
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

func TestIngestPartialBatchReportsReasons(t *testing.T) {
	f := &ingestingEngine{}
	srv := httptest.NewServer(Handler(&partialEngine{inner: f}))
	defer srv.Close()
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

// partialEngine accepts all but one delivery of every batch.
type partialEngine struct{ inner *ingestingEngine }

func (p *partialEngine) Slate(updater, key string) []byte { return p.inner.Slate(updater, key) }
func (p *partialEngine) LargestQueues() map[string]int    { return p.inner.LargestQueues() }
func (p *partialEngine) IngestBatch(evs []event.Event) (int, error) {
	return len(evs) - 1, &ingress.BatchError{
		Events: len(evs), Accepted: len(evs) - 1, Dropped: 1,
		Reasons: map[string]int{"batch-partial": 1},
	}
}

func TestIngestBadJSON(t *testing.T) {
	f := &ingestingEngine{}
	srv := httptest.NewServer(Handler(f))
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

func TestIngestNotInputStream(t *testing.T) {
	f := &ingestingEngine{fail: &ingress.NotInputError{Stream: "S9"}}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
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
	f := &ingestingEngine{fail: ingress.ErrStopped}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
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
	f := &ingestingEngine{}
	srv := httptest.NewServer(Handler(f))
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

// nodeEngine adds the NodeInfo surface to the fake.
type nodeEngine struct {
	fakeEngine
}

func (n *nodeEngine) TransportName() string  { return "tcp" }
func (n *nodeEngine) MachineNames() []string { return []string{"machine-00", "machine-01"} }
func (n *nodeEngine) LocalNames() []string   { return []string{"machine-00"} }

func TestStatusReportsNodeInfo(t *testing.T) {
	srv := httptest.NewServer(Handler(&nodeEngine{}))
	defer srv.Close()
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
	if st.Transport != "tcp" {
		t.Fatalf("transport = %q", st.Transport)
	}
	if len(st.Machines) != 2 || st.Machines[0] != "machine-00" {
		t.Fatalf("machines = %v", st.Machines)
	}
	if len(st.Local) != 1 || st.Local[0] != "machine-00" {
		t.Fatalf("local = %v", st.Local)
	}
}

// queryEngine adds the Querier and QueryWatcher surfaces to the fake.
type queryEngine struct {
	fakeEngine
	spec query.Spec
	res  *query.Result
	err  error
	sink *engine.Sink
}

func (q *queryEngine) Query(spec query.Spec) (*query.Result, error) {
	q.spec = spec
	return q.res, q.err
}

func (q *queryEngine) QueryWatch(spec query.Spec, buf int) (*engine.Subscription, func(), error) {
	if err := spec.Normalize(); err != nil {
		return nil, nil, err
	}
	q.spec = spec
	sub := q.sink.Subscribe("_query/1", buf)
	return sub, func() { sub.Cancel() }, nil
}

func TestQueryNotSupportedWithoutQuerier(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/query", "application/json", strings.NewReader(`{"updater":"U1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

func TestQueryRejectsGetAndBadSpec(t *testing.T) {
	srv := httptest.NewServer(Handler(&queryEngine{res: &query.Result{}}))
	defer srv.Close()
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
	f := &queryEngine{res: &query.Result{
		Rows:   []query.Row{{Key: "a", Value: json.RawMessage(`1`)}},
		Groups: []query.Group{{Key: "Walmart", Count: 10}},
		Stats:  query.ExecStats{RowsScanned: 3, RowsReturned: 2},
	}}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
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
	f := &queryEngine{err: errors.New("no updater \"U9\"")}
	srv := httptest.NewServer(Handler(f))
	defer srv.Close()
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
	f := &queryEngine{sink: engine.NewSink()}
	srv := httptest.NewServer(Handler(f))
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

func TestStatusOmitsNodeInfoWhenUnsupported(t *testing.T) {
	srv, _ := newServer()
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.Contains(string(body), `"transport"`) {
		t.Fatalf("transport reported by an engine without NodeInfo: %s", body)
	}
}
