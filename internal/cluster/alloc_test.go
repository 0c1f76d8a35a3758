package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"muppet/internal/event"
)

// The receive path's allocation budgets: a frame's keys and values are
// carved from its connection's chunk and its delivery slice is reused,
// so a frame costs a share of a chunk, and the dedup window and the
// frame I/O under it cost nothing in steady state.

// TestDecodeRequestAllocBudget: tweet-sized requests decoded off one
// connection (its names interned, its delivery slice reused from the
// previous frame) allocate only when the connection's chunk fills, and a
// value too large to carve costs exactly its own allocation.
func TestDecodeRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	// Eight deliveries of about 100 bytes: the ~870-byte frame a paced
	// three-node round sends on average.
	ds := make([]Delivery, 8)
	for i := range ds {
		ds[i] = Delivery{Worker: "U_rep", Ev: event.Event{Stream: "S2", Seq: uint64(i), Key: fmt.Sprintf("user%06d", i),
			Value: []byte(fmt.Sprintf(`{"user":"user%06d","text":"a tweet of some fifty bytes about #topic%02d","n":1}`, i, i))}}
	}
	id := BatchID{Sender: "machine-00", Epoch: 1, Seq: 1}
	p := encodeRequest(nil, id, "machine-01", ds)
	if len(p) < 820 || len(p) > 920 {
		t.Fatalf("the request is %d bytes, want about 870", len(p))
	}
	const frames = 1000
	rs := newReceiver()
	var got []Delivery
	perFrame := testing.AllocsPerRun(1, func() {
		for range frames {
			_, _, got, _ = rs.decodeRequest(p, got)
		}
	}) / frames
	if perFrame > 0.05 {
		t.Fatalf("decoding a %d-byte, %d-delivery request allocated %.3f times, want <= 0.05", len(p), len(ds), perFrame)
	}
	if len(got) != len(ds) || got[7].Ev.Key != "user000007" || !bytes.Equal(got[7].Ev.Value, ds[7].Ev.Value) {
		t.Fatalf("reused decode gave %d deliveries, last %+v", len(got), got[len(got)-1])
	}

	big := []Delivery{{Worker: "U_rep", Ev: event.Event{Stream: "S2", Key: "k", Value: bytes.Repeat([]byte("v"), recvMaxCarve+1)}}}
	p = encodeRequest(nil, id, "machine-01", big)
	if n := testing.AllocsPerRun(100, func() { _, _, got, _ = rs.decodeRequest(p, got) }); n != 1 {
		t.Fatalf("decoding a %d-byte value allocated %.0f times, want 1 (its own copy)", recvMaxCarve+1, n)
	}
	if !bytes.Equal(got[0].Ev.Value, big[0].Ev.Value) {
		t.Fatal("the over-limit value decoded wrong")
	}
}

// TestDedupAllocBudget: once a sender's window is full, claiming and
// committing a batch reuses the entry its evicted predecessor held; while
// it fills, entries come a block at a time.
func TestDedupAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct {
		phase       string
		window, pre int
	}{{"filling", dedupWindow, 1}, {"steady state", 64, 200}} {
		tab := newDedupTable(tc.window)
		seq := uint64(0)
		step := func() {
			seq++
			e, dup := tab.begin(BatchID{Sender: "machine-00", Epoch: 1, Seq: seq})
			if dup || e == nil {
				t.Fatalf("seq %d: entry %v dup %v", seq, e, dup)
			}
			e.commit(1, nil, nil)
		}
		for i := 0; i < tc.pre; i++ {
			step()
		}
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Errorf("dedup begin+commit allocated %.1f times per batch %s, want 0", n, tc.phase)
		}
	}
}

// TestFrameIOAllocBudget: writing a frame builds its length prefix in
// the writer's buffer, and reading one into a buffer that fits it reads
// the prefix in place.
func TestFrameIOAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	body := bytes.Repeat([]byte("x"), 1500)
	bw := bufio.NewWriterSize(io.Discard, 64<<10)
	if n := testing.AllocsPerRun(100, func() { writeFrame(bw, body) }); n != 0 {
		t.Fatalf("writeFrame allocated %.1f times, want 0", n)
	}

	var wire bytes.Buffer
	w := bufio.NewWriter(&wire)
	for i := 0; i < 101; i++ {
		writeFrame(w, body)
	}
	r := bytes.NewReader(wire.Bytes())
	br := bufio.NewReaderSize(r, 64<<10)
	dst := make([]byte, 0, len(body))
	n := testing.AllocsPerRun(100, func() {
		got, err := readFrameInto(br, dst[:0], 1<<20)
		if err != nil || len(got) != len(body) {
			t.Fatalf("read %d bytes, err %v", len(got), err)
		}
	})
	if n != 0 {
		t.Fatalf("readFrameInto allocated %.1f times, want 0", n)
	}
}
