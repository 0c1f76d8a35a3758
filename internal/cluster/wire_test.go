package cluster

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/queue"
)

func TestWireRequestRoundTrip(t *testing.T) {
	ds := []Delivery{
		{Worker: "U1#0", Ev: event.Event{Stream: "S1", TS: 123456, Seq: 9, Key: "k", Value: []byte(`{"v":1}`), Ingress: -7, Decoded: &struct{ V int }{1}}, Tag: 42},
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
		// The decoded payload is node-local: the receiver decodes anew.
		if g.Ev.Decoded != nil {
			t.Errorf("delivery %d crossed the wire with a decoded payload %v", i, g.Ev.Decoded)
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
	// the trailing count byte is 'O' ++ str("") ++ 0 ++ 0 ++ str("m").
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
	if _, _, _, err := decodeResponse([]byte{wireReq}); err == nil {
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

	rs := newReceiver()
	_, _, want, err := decodeRequest(p)
	if err != nil {
		t.Fatal(err)
	}
	_, _, got, err := rs.decodeRequest(p, nil)
	if err != nil || len(got) != len(want) {
		t.Fatalf("interned decode: %d deliveries, err %v", len(got), err)
	}
	for i := range want {
		if got[i].Worker != want[i].Worker || got[i].Ev.Stream != want[i].Ev.Stream || got[i].Ev.Seq != want[i].Ev.Seq {
			t.Fatalf("delivery %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(rs.names) != 4 {
		t.Fatalf("interner holds %d names after one frame, want 4: %v", len(rs.names), rs.names)
	}
	plain := testing.AllocsPerRun(20, func() { decodeRequest(p) })
	interned := testing.AllocsPerRun(20, func() { rs.decodeRequest(p, nil) })
	if saved := plain - interned; saved < 2*n {
		t.Fatalf("interning saved %.0f allocations on %d deliveries (%.0f -> %.0f), want >= %d", saved, n, plain, interned, 2*n)
	}

	// Unbounded vocabularies stop being interned, and long strings never
	// are; both still decode.
	for i := 0; i < 2*internCap; i++ {
		rs.str([]byte{byte(i), byte(i >> 8), 'x'})
	}
	long := make([]byte, internMaxLen+1)
	if got := rs.str(long); got != string(long) || len(rs.names) != internCap {
		t.Fatalf("interner grew to %d entries (cap %d) or mangled a long name", len(rs.names), internCap)
	}
}

// goldenMayWaitRequest is encodeRequest's output, captured at the last
// commit before the no-wait kind existed, for a three-delivery batch
// from node-a (epoch 77, seq 12345) to machine-03: a frame of the
// retired may-wait kind 'Q'.
const goldenMayWaitRequest = "51066e6f64652d614db9600a6d616368696e652d303303045531233002533180890f09016b02760d" +
	"0255320253320900096e696c2d76616c7565000000000000000100"

// The wire has one request kind, 'O', and a frame of it never waits: no
// delivery's mark changes what is sent, and every delivery decodes
// unmarked, since the receiver treats the whole frame as no-wait.
func TestWireNoWaitIsTheRequestKind(t *testing.T) {
	ds := []Delivery{{Worker: "U1", Ev: event.Event{Key: "a"}}, {Worker: "U1", Ev: event.Event{Key: "b"}, Tag: 1}}
	id := BatchID{Sender: "n", Epoch: 1, Seq: 2}
	var unmarked []byte
	for _, mark := range []int{-1, 0, 1} {
		for i := range ds {
			ds[i].NoWait = i == mark
		}
		p := encodeRequest([]byte("prefix"), id, "machine-01", ds)[len("prefix"):]
		if p[0] != wireReq {
			t.Fatalf("mark %d: kind %q, want %q", mark, p[0], wireReq)
		}
		if mark < 0 {
			unmarked = p
		} else if !bytes.Equal(p, unmarked) {
			t.Fatalf("mark %d: a delivery's mark reached the wire: %x vs %x", mark, p, unmarked)
		}
		_, _, got, err := decodeRequest(p)
		if err != nil || len(got) != len(ds) {
			t.Fatalf("mark %d: decode = %v, %v", mark, got, err)
		}
		for i := range got {
			if got[i].NoWait {
				t.Fatalf("mark %d: delivery %d decoded NoWait", mark, i)
			}
		}
	}
}

// A frame from a peer built before the no-wait kind is of the retired
// may-wait kind 'Q' and is refused whole. Its format is otherwise
// unchanged: the same batch sent now differs from the golden frame in
// its kind byte only, and decodes to what was sent.
func TestWireDecodesPreNoWaitFrame(t *testing.T) {
	golden, err := hex.DecodeString(goldenMayWaitRequest)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := decodeRequest(golden); err == nil {
		t.Fatal("a may-wait 'Q' frame decoded")
	}
	want := []Delivery{
		{Worker: "U1#0", Ev: event.Event{Stream: "S1", TS: 123456, Seq: 9, Key: "k", Value: []byte("v"), Ingress: -7}},
		{Worker: "U2", Ev: event.Event{Stream: "S2", TS: -5, Key: "nil-value"}, Tag: 1},
		{Worker: "", Ev: event.Event{Key: "", Value: []byte{}}, Tag: 2},
	}
	current := encodeRequest(nil, BatchID{Sender: "node-a", Epoch: 77, Seq: 12345}, "machine-03", want)
	if current[0] != wireReq || !bytes.Equal(current[1:], golden[1:]) {
		t.Fatalf("the batch now encodes to %x", current)
	}
	id, machine, got, err := decodeRequest(current)
	if err != nil {
		t.Fatal(err)
	}
	if (id != BatchID{Sender: "node-a", Epoch: 77, Seq: 12345}) || machine != "machine-03" {
		t.Fatalf("decoded id %+v machine %q", id, machine)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v", got, want)
	}
}

// A frame from a peer never waits on a queue: on every transport between
// two nodes a frame that reaches a full Block queue is rejected with
// ErrOverflow at once, although none of its deliveries is marked no-wait.
func TestPeerFrameNeverWaits(t *testing.T) {
	mayWait := func() []Delivery {
		return []Delivery{{Worker: "U1", Ev: event.Event{Key: "a"}}, {Worker: "U1", Ev: event.Event{Key: "b"}, Tag: 1}}
	}

	// machine-01 holds one Block queue, already full, and enqueues as the
	// engines do: waiting unless a delivery is marked no-wait.
	full := queue.New[event.Event](1, queue.Block)
	full.PutBatch([]event.Event{{Key: "x"}})
	defer full.Close()
	install := func(host *Cluster) {
		host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
			evs := make([]event.Event, len(ds))
			put := full.PutBatch
			for i := range ds {
				evs[i] = ds[i].Ev
				if ds[i].NoWait {
					put = full.OfferBatch
				}
			}
			n, err := put(evs)
			if err == nil {
				return nil
			}
			errs := make([]error, len(ds))
			for i := n; i < len(ds); i++ {
				errs[i] = err
			}
			return errs
		})
	}
	forEachTransport(t, install, func(t *testing.T, fx *conformanceFixture) {
		if fx.Sender == fx.Host {
			return // one node: the frame is a local source's, which may wait
		}
		var accepted int
		var rejects []BatchReject
		var err error
		done := make(chan struct{})
		go func() {
			defer close(done)
			accepted, rejects, err = fx.Sender.SendBatch("machine-01", mayWait())
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			full.Close() // let the parked frame go so the test can end
			t.Fatal("a peer frame waited 5s on a full Block queue")
		}
		if err != nil || accepted != 0 || len(rejects) != 2 {
			t.Fatalf("SendBatch = %d accepted, %v rejects, %v; want both rejected", accepted, rejects, err)
		}
		for _, rj := range rejects {
			if !errors.Is(rj.Err, queue.ErrOverflow) {
				t.Fatalf("delivery %d rejected with %v, want ErrOverflow", rj.Index, rj.Err)
			}
		}
	})
}

// FuzzWireFrame: the four decoders take bytes off a socket. Arbitrary
// input never panics them and never yields more than its length could
// describe; what decodeRequest returns is its own, so the caller may
// overwrite the bytes it decoded at once; and decodeRequest undoes
// encodeRequest for any delivery, the nil/empty value distinction
// included, except the no-wait mark, which never crosses. One
// connection's receiver decoding a run of frames out of one reused read
// buffer, across chunk boundaries and past the carve limit, never
// changes what it handed out for an earlier frame.
func FuzzWireFrame(f *testing.F) {
	golden, _ := hex.DecodeString(goldenMayWaitRequest)
	current := bytes.Clone(golden)
	current[0] = wireReq
	one := []Delivery{{Worker: "U1", Ev: event.Event{Stream: "S1", TS: 5, Seq: 6, Key: "k", Value: []byte("v"), Ingress: 7}}}
	id := BatchID{Sender: "node-a", Epoch: 1, Seq: 2}
	for _, seed := range [][]byte{
		golden,  // the retired kind: refused
		current, // the same batch as it is sent now
		encodeRequest(nil, id, "machine-01", one),
		encodeResponse(nil, statusOK, 3, []BatchReject{{Index: 1, Err: queue.ErrOverflow}, {Index: 4, Err: queue.ErrClosed}}),
		encodeQueryRequest(nil, "machine-01", []byte(`{"updater":"U1"}`)),
		encodeQueryResponse(nil, statusQueryFailed, []byte("boom")),
		{wireReq, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x7f}, // hostile delivery count
		{wireResp, statusOK, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1, 0xff, 0xff, 0xff, 0xff, 0x0f, rejectOverflow},
	} {
		f.Add(seed, "U1#0", "S1", "k", []byte("v"), int64(-5), uint64(9), int64(7), true)
	}
	f.Add([]byte(nil), "", "", "", []byte(nil), int64(0), uint64(0), int64(0), false)
	f.Add([]byte{}, "w", "s", "k", []byte{}, int64(1), uint64(1), int64(1), false)
	f.Fuzz(func(t *testing.T, data []byte, worker, stream, key string, value []byte, ts int64, seq uint64, ingress int64, noWait bool) {
		for _, in := range []*receiver{new(receiver), newReceiver()} {
			buf := bytes.Clone(data)
			_, _, ds, err := in.decodeRequest(buf, nil)
			if err != nil {
				continue
			}
			if len(ds)*minDeliveryBytes > len(data) {
				t.Fatalf("decodeRequest returned %d deliveries from %d bytes", len(ds), len(data))
			}
			want := make([]Delivery, len(ds))
			for i, d := range ds {
				want[i] = d
				want[i].Ev = d.Ev.Clone()
			}
			for i := range buf {
				buf[i] ^= 0xff
			}
			if !reflect.DeepEqual(ds, want) {
				t.Fatalf("overwriting the decoded bytes changed the deliveries: %+v, want %+v", ds, want)
			}
		}
		if _, _, rejects, err := decodeResponse(data); err == nil && len(rejects)*2 > len(data) {
			t.Fatalf("decodeResponse returned %d rejects from %d bytes", len(rejects), len(data))
		}
		if _, payload, err := decodeQueryRequest(data); err == nil && len(payload) > len(data) {
			t.Fatalf("decodeQueryRequest returned %d payload bytes from %d", len(payload), len(data))
		}
		if _, payload, err := decodeQueryResponse(data); err == nil && len(payload) > len(data) {
			t.Fatalf("decodeQueryResponse returned %d payload bytes from %d", len(payload), len(data))
		}

		in := []Delivery{
			{Worker: worker, Ev: event.Event{Stream: stream, TS: event.Timestamp(ts), Seq: seq, Key: key, Value: value, Ingress: ingress}, NoWait: noWait},
			{Worker: worker, Ev: event.Event{Key: key}, Tag: 1, NoWait: noWait},
		}
		bid := BatchID{Sender: worker, Epoch: seq, Seq: uint64(ts)}
		enc := encodeRequest(nil, bid, stream, in)
		gotID, machine, out, err := newReceiver().decodeRequest(enc, nil)
		if err != nil {
			t.Fatalf("decode of encodeRequest output: %v", err)
		}
		clear(enc)
		if gotID != bid || machine != stream {
			t.Fatalf("decoded id %+v machine %q, want %+v %q", gotID, machine, bid, stream)
		}
		for i := range in {
			in[i].NoWait = false
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("decoded %+v, want %+v", out, in)
		}

		// Each frame carries the fuzzed delivery, a nil and an empty value,
		// and a pad of a byte of its own: carved pads of at least half the
		// carve limit, so the run fills more than a chunk, and every fourth
		// pad over the limit.
		rs := newReceiver()
		var read []byte
		var sent, got []Delivery
		for k := range 16 {
			size := recvMaxCarve/2 + int((seq+uint64(k)*3001)%(recvMaxCarve/2))
			if k%4 == 3 {
				size = recvMaxCarve + 1 + k
			}
			pad := bytes.Repeat([]byte{byte(k + 1)}, size)
			frame := []Delivery{
				{Worker: worker, Ev: event.Event{Stream: stream, Key: key, Value: value}},
				{Worker: worker, Ev: event.Event{Key: key}, Tag: 1},
				{Worker: worker, Ev: event.Event{Value: []byte{}}, Tag: 2},
				{Worker: worker, Ev: event.Event{Key: string(pad[:size%97]), Value: pad}, Tag: 3},
			}
			read = encodeRequest(read[:0], bid, stream, frame)
			_, _, ds, err := rs.decodeRequest(read, nil)
			if err != nil {
				t.Fatalf("frame %d: %v", k, err)
			}
			for i := range read {
				read[i] ^= 0xff
			}
			sent, got = append(sent, frame...), append(got, ds...)
			if !reflect.DeepEqual(got, sent) {
				t.Fatalf("after frame %d the decoded deliveries are %+v, want %+v", k, got, sent)
			}
		}
	})
}
