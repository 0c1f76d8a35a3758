package cluster

import (
	"errors"
	"testing"

	"muppet/internal/event"
	"muppet/internal/queue"
)

func TestWireRequestRoundTrip(t *testing.T) {
	ds := []Delivery{
		{Worker: "U1#0", Ev: event.Event{Stream: "S1", TS: 123456, Seq: 9, Key: "k", Value: []byte("v"), Ingress: -7}, Tag: 42},
		{Worker: "U2#1", Ev: event.Event{Stream: "S2", TS: -5, Key: "nil-value"}},
		{Worker: "", Ev: event.Event{Key: "", Value: []byte{}}}, // empty strings, empty value
	}
	id := BatchID{Sender: "node-a", Epoch: 77, Seq: 12345}
	p := encodeRequest(nil, id, "machine-03", ds)
	gotID, machine, got, err := decodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("batch id = %+v, want %+v", gotID, id)
	}
	if machine != "machine-03" {
		t.Fatalf("machine = %q", machine)
	}
	if len(got) != len(ds) {
		t.Fatalf("decoded %d deliveries, want %d", len(got), len(ds))
	}
	for i := range ds {
		w, g := ds[i], got[i]
		if g.Worker != w.Worker || g.Ev.Stream != w.Ev.Stream || g.Ev.TS != w.Ev.TS ||
			g.Ev.Seq != w.Ev.Seq || g.Ev.Key != w.Ev.Key || g.Ev.Ingress != w.Ev.Ingress {
			t.Errorf("delivery %d = %+v, want %+v", i, g, w)
		}
		if string(g.Ev.Value) != string(w.Ev.Value) || (g.Ev.Value == nil) != (w.Ev.Value == nil) {
			t.Errorf("delivery %d value = %#v, want %#v", i, g.Ev.Value, w.Ev.Value)
		}
		// Tag is sender-local: the decoder assigns batch positions.
		if g.Tag != i {
			t.Errorf("delivery %d tag = %d, want batch position %d", i, g.Tag, i)
		}
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	rejects := []BatchReject{
		{Index: 1, Err: queue.ErrOverflow},
		{Index: 4, Err: queue.ErrClosed},
		{Index: 7, Err: errors.New("some local mishap")},
	}
	p := encodeResponse(nil, statusOK, 17, rejects)
	status, accepted, got, err := decodeResponse(p)
	if err != nil {
		t.Fatal(err)
	}
	if status != statusOK || accepted != 17 {
		t.Fatalf("status=%d accepted=%d", status, accepted)
	}
	if len(got) != 3 {
		t.Fatalf("rejects = %v", got)
	}
	if got[0].Index != 1 || !errors.Is(got[0].Err, queue.ErrOverflow) {
		t.Errorf("reject 0 = %v; overflow sentinel must survive", got[0])
	}
	if got[1].Index != 4 || !errors.Is(got[1].Err, queue.ErrClosed) {
		t.Errorf("reject 1 = %v; closed sentinel must survive", got[1])
	}
	if got[2].Index != 7 || !errors.Is(got[2].Err, ErrRemoteReject) {
		t.Errorf("reject 2 = %v; unknown causes map to ErrRemoteReject", got[2])
	}
}

func TestWireStatusRoundTrip(t *testing.T) {
	for _, err := range []error{nil, ErrMachineDown, ErrNoHandler} {
		back := statusErr(statusOf(err), "machine-00")
		if !errors.Is(back, err) && !(err == nil && back == nil) {
			t.Errorf("status round-trip of %v came back %v", err, back)
		}
	}
}

func TestWireTruncationSafety(t *testing.T) {
	ds := []Delivery{{Worker: "w", Ev: event.Event{Stream: "S1", Key: "k", Value: []byte("abc")}}}
	req := encodeRequest(nil, BatchID{Sender: "node-a", Epoch: 1, Seq: 2}, "machine-00", ds)
	for cut := 0; cut < len(req); cut++ {
		if _, _, _, err := decodeRequest(req[:cut]); err == nil {
			t.Fatalf("decodeRequest accepted a %d/%d-byte prefix", cut, len(req))
		}
	}
	resp := encodeResponse(nil, statusOK, 3, []BatchReject{{Index: 2, Err: queue.ErrOverflow}})
	for cut := 0; cut < len(resp); cut++ {
		if _, _, _, err := decodeResponse(resp[:cut]); err == nil {
			t.Fatalf("decodeResponse accepted a %d/%d-byte prefix", cut, len(resp))
		}
	}
}

// A hostile count prefix must not drive allocation: the decoder bounds
// the claimed element count by the remaining bytes.
func TestWireHostileCount(t *testing.T) {
	p := encodeRequest(nil, BatchID{}, "m", nil)
	// Rewrite the delivery count to an absurd value: everything up to
	// the trailing count byte is 'Q' ++ str("") ++ 0 ++ 0 ++ str("m").
	hostile := append([]byte{}, p[:len(p)-1]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0xff, 0x7f) // uvarint ~34G
	if _, _, _, err := decodeRequest(hostile); err == nil {
		t.Fatal("hostile delivery count accepted")
	}
}

func TestWireWrongKind(t *testing.T) {
	if _, _, _, err := decodeRequest([]byte{'R'}); err == nil {
		t.Fatal("response bytes accepted as request")
	}
	if _, _, _, err := decodeResponse([]byte{'Q'}); err == nil {
		t.Fatal("request bytes accepted as response")
	}
}

// TestWireInternerSharesNamesAndStaysBounded: a connection's interner
// decodes to the same deliveries as the plain decoder while allocating
// the small-vocabulary names (sender, machine, worker, stream) once per
// connection rather than once per delivery — and hostile input cannot
// grow it past its caps.
func TestWireInternerSharesNamesAndStaysBounded(t *testing.T) {
	const n = 64
	ds := make([]Delivery, n)
	for i := range ds {
		ds[i] = Delivery{Worker: "U_rep", Ev: event.Event{Stream: "S2", Seq: uint64(i), Key: "k", Value: []byte("v")}}
	}
	p := encodeRequest(nil, BatchID{Sender: "machine-00", Epoch: 1, Seq: 1}, "machine-01", ds)

	names := make(interner)
	_, _, want, err := decodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := names.decodeRequest(p)
	if err != nil || len(got) != len(want) {
		t.Fatalf("interned decode: %d deliveries, err %v", len(got), err)
	}
	for i := range want {
		if got[i].Worker != want[i].Worker || got[i].Ev.Stream != want[i].Ev.Stream || got[i].Ev.Seq != want[i].Ev.Seq {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(names) != 4 {
		t.Fatalf("interner holds %d names after one frame, want 4: %v", len(names), names)
	}
	plain := testing.AllocsPerRun(20, func() { decodeRequest(p) })
	interned := testing.AllocsPerRun(20, func() { names.decodeRequest(p) })
	if saved := plain - interned; saved < 2*n {
		t.Fatalf("interning saved %.0f allocations on %d deliveries (%.0f -> %.0f), want >= %d", saved, n, plain, interned, 2*n)
	}

	// Unbounded vocabularies stop being interned, and long strings never
	// are; both still decode.
	for i := 0; i < 2*internCap; i++ {
		names.str([]byte{byte(i), byte(i >> 8), 'x'})
	}
	long := make([]byte, internMaxLen+1)
	if got := names.str(long); got != string(long) || len(names) != internCap {
		t.Fatalf("interner grew to %d entries (cap %d) or mangled a long name", len(names), internCap)
	}
}
