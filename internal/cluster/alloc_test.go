package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"muppet/internal/event"
)

// The receive path's allocation budgets: a frame costs its bytes and its
// delivery slice, however many deliveries it carries, and the dedup
// window and the frame I/O under it cost nothing in steady state.

// TestDecodeRequestAllocBudget: a 64-delivery request decoded off a
// warm connection (its names interned, its delivery slice reused from
// the previous frame) allocates one copy of the frame, which every Key
// and Value shares, and nothing else.
func TestDecodeRequestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	ds := make([]Delivery, 64)
	for i := range ds {
		ds[i] = Delivery{Worker: "U_rep", Ev: event.Event{Stream: "S2", Seq: uint64(i), Key: fmt.Sprintf("user%d", i), Value: []byte(`{"delta":1}`)}}
	}
	p := encodeRequest(nil, BatchID{Sender: "machine-00", Epoch: 1, Seq: 1}, "machine-01", ds)
	names := make(interner)
	_, _, got, err := names.decodeRequest(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _, _, got, _ = names.decodeRequest(p, got) }); n > 1 {
		t.Fatalf("decoding a %d-delivery request allocated %.0f times, want <= 1", len(ds), n)
	}
	if len(got) != len(ds) || got[63].Ev.Key != "user63" {
		t.Fatalf("reused decode gave %d deliveries, last %+v", len(got), got[len(got)-1])
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
