package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/frame"
)

// startTCPPair wires a sender node (machine-00) to a host node
// (machine-01) over loopback and returns both plus their transports.
func startTCPPair(t *testing.T, senderCfg TCPConfig) (sender, host *Cluster, trA, trB *TCP) {
	t.Helper()
	names := []string{"machine-00", "machine-01"}
	var err error
	trB, err = NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	host = New(Config{Names: names, Local: []string{"machine-01"}, Transport: trB})
	trB.Serve(host)

	senderCfg.Peers = map[string]string{"machine-01": trB.Addr()}
	trA, err = NewTCP(senderCfg)
	if err != nil {
		t.Fatal(err)
	}
	sender = New(Config{Names: names, Local: []string{"machine-00"}, Transport: trA})
	trA.Serve(sender)
	t.Cleanup(func() { sender.Close(); host.Close() })
	return sender, host, trA, trB
}

func TestTCPStatsCount(t *testing.T) {
	sender, host, trA, trB := startTCPPair(t, TCPConfig{})
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })

	ds := []Delivery{{Worker: "w", Ev: event.Event{Key: "k", Value: []byte("v")}}}
	for i := 0; i < 3; i++ {
		if _, _, err := sender.SendBatch("machine-01", ds); err != nil {
			t.Fatal(err)
		}
	}
	a, b := trA.Stats(), trB.Stats()
	if a.Dials != 1 {
		t.Errorf("sender dials = %d, want 1 (pooled connection)", a.Dials)
	}
	if a.FramesOut != 3 || b.FramesIn != 3 {
		t.Errorf("frames out=%d in=%d, want 3/3", a.FramesOut, b.FramesIn)
	}
	if a.BytesOut == 0 || b.BytesIn == 0 {
		t.Errorf("byte counters stayed zero: out=%d in=%d", a.BytesOut, b.BytesIn)
	}
}

func TestTCPBackoffFailsFast(t *testing.T) {
	// A dead address: bind a port, then close it so nothing listens.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	tr, err := NewTCP(TCPConfig{
		Peers:        map[string]string{"machine-01": addr},
		RetryBackoff: time.Hour, // one failed dial arms a very long window
	})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"machine-00", "machine-01"}
	c := New(Config{Names: names, Local: []string{"machine-00"}, Transport: tr})
	tr.Serve(c)
	defer c.Close()

	if err := sendOne(c, "machine-01", "w", event.Event{}); !IsTransient(err) {
		t.Fatalf("dial failure: err = %v, want a transient fault", err)
	}
	// A failed dial is suspicion, not proof of death: the peer stays
	// presumed alive and the verdict belongs to the recovery detector.
	if !c.Machine("machine-01").Alive() {
		t.Fatal("one exhausted retry budget must not flip the liveness presumption")
	}
	// ResetPeer (via Revive) clears the armed backoff so the next
	// attempt dials immediately instead of failing fast for an hour.
	c.Revive("machine-01")
	start := time.Now()
	if err := sendOne(c, "machine-01", "w", event.Event{}); !IsTransient(err) {
		t.Fatalf("second dial: err = %v, want a transient fault", err)
	}
	if time.Since(start) > 30*time.Second {
		t.Fatal("send blocked instead of failing within the dial timeout")
	}
	if st := tr.Stats(); st.DialErrors < 2 {
		t.Fatalf("dial errors = %d, want >= 2 (Revive must reset the backoff window)", st.DialErrors)
	}
}

// A pooled connection that breaks under a healthy peer — the peer closed
// it, a middlebox cut it — says nothing about whether the peer answers:
// the failed exchange arms no redial window, and the retry redials at
// once and lands. Batches and queries alike.
func TestTCPBrokenConnectionRedialsOnRetry(t *testing.T) {
	for _, tc := range []struct {
		name string
		send func(c *Cluster) error
	}{
		{"batch", func(c *Cluster) error {
			accepted, _, err := c.SendBatch("machine-01", []Delivery{{Worker: "w", Ev: event.Event{Key: "k"}}})
			if err == nil && accepted != 1 {
				err = fmt.Errorf("accepted %d of 1", accepted)
			}
			return err
		}},
		{"query", func(c *Cluster) error {
			_, err := c.Query("machine-01", []byte("q"))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sender, host, trA, trB := startTCPPair(t, TCPConfig{})
			host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })
			host.SetQueryHandler(echoQueryHandler)
			if err := tc.send(sender); err != nil {
				t.Fatal(err)
			}
			trB.mu.Lock()
			for conn := range trB.conns {
				conn.Close()
			}
			trB.mu.Unlock()

			if err := tc.send(sender); err != nil {
				t.Fatalf("send over a broken connection: %v", err)
			}
			if st := sender.DeliveryStats(); st.Retries != 1 || st.RetryExhausted != 0 {
				t.Fatalf("retries = %d, exhausted = %d; want 1 and 0", st.Retries, st.RetryExhausted)
			}
			if st := trA.Stats(); st.Dials != 2 {
				t.Fatalf("dials = %d, want 2: the retry must redial at once", st.Dials)
			}
		})
	}
}

// Re-adding a peer replaces its pooled connection: the old one is
// closed, not left open for the life of the process, so once the sender
// closes, the host serves nothing.
func TestTCPAddPeerClosesReplacedConnection(t *testing.T) {
	sender, host, trA, trB := startTCPPair(t, TCPConfig{})
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })
	send := func() {
		t.Helper()
		if _, _, err := sender.SendBatch("machine-01", []Delivery{{Worker: "w", Ev: event.Event{Key: "k"}}}); err != nil {
			t.Fatal(err)
		}
	}
	send()
	trA.AddPeer("machine-01", trB.Addr())
	send()
	trA.Close()
	served := func() int {
		trB.mu.Lock()
		defer trB.mu.Unlock()
		return len(trB.conns)
	}
	for deadline := time.Now().Add(time.Second); served() > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("host still serves %d connections 1 s after the sender closed", served())
		}
	}
}

func TestTCPOversizedFrameRejected(t *testing.T) {
	names := []string{"machine-00", "machine-01"}
	trB, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0", MaxFrame: 256})
	if err != nil {
		t.Fatal(err)
	}
	host := New(Config{Names: names, Local: []string{"machine-01"}, Transport: trB})
	trB.Serve(host)
	trA, err := NewTCP(TCPConfig{
		Peers:        map[string]string{"machine-01": trB.Addr()},
		RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	sender := New(Config{Names: names, Local: []string{"machine-00"}, Transport: trA})
	trA.Serve(sender)
	t.Cleanup(func() { sender.Close(); host.Close() })
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })

	// The frame body goes through the compressing slate codec, so the
	// payload must be incompressible to actually exceed MaxFrame.
	payload := make([]byte, 64<<10)
	x := uint32(2463534242)
	for i := range payload {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		payload[i] = byte(x)
	}
	big := []Delivery{{Worker: "w", Ev: event.Event{Key: "k", Value: payload}}}
	if _, _, err := sender.SendBatch("machine-01", big); err == nil {
		t.Fatal("oversized response accepted")
	}
	// Small batches still go through on a fresh connection.
	small := []Delivery{{Worker: "w", Ev: event.Event{Key: "k"}}}
	for i := 0; i < 100; i++ {
		sender.Revive("machine-01")
		if _, _, err = sender.SendBatch("machine-01", small); err == nil {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("small batch after oversized failure: %v", err)
	}
}

func TestTCPNoPeerAddress(t *testing.T) {
	tr, err := NewTCP(TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if _, _, err := tr.SendBatch("machine-09", BatchID{}, []Delivery{{Worker: "w"}}); err == nil || errors.Is(err, ErrMachineDown) || IsTransient(err) {
		t.Fatalf("unmapped peer: err = %v, want a configuration error distinct from network faults", err)
	}
	tr.AddPeer("machine-09", "127.0.0.1:1") // now mapped (to a dead port)
	if _, _, err := tr.SendBatch("machine-09", BatchID{}, []Delivery{{Worker: "w"}}); !IsTransient(err) {
		t.Fatalf("mapped dead peer: err = %v, want a transient dial fault", err)
	}
}

func TestTCPSendAfterClose(t *testing.T) {
	sender, host, trA, _ := startTCPPair(t, TCPConfig{})
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })
	if err := sendOne(sender, "machine-01", "w", event.Event{Key: "k"}); err != nil {
		t.Fatal(err)
	}
	if err := trA.Close(); err != nil {
		t.Fatal(err)
	}
	if err := trA.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, _, err := trA.SendBatch("machine-01", BatchID{}, []Delivery{{Worker: "w"}}); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("send after Close: err = %v, want ErrMachineDown", err)
	}
}

// The peer answering "machine down" must NOT tear down the connection:
// the node is healthy, the machine is not — and after the hosting node
// revives the machine, sends resume on the same pooled connection.
func TestTCPMachineDownKeepsConnection(t *testing.T) {
	sender, host, trA, _ := startTCPPair(t, TCPConfig{})
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })

	if err := sendOne(sender, "machine-01", "w", event.Event{}); err != nil {
		t.Fatal(err)
	}
	host.Crash("machine-01")
	if err := sendOne(sender, "machine-01", "w", event.Event{}); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("crashed machine: err = %v, want ErrMachineDown", err)
	}
	host.Revive("machine-01")
	sender.Revive("machine-01")
	if err := sendOne(sender, "machine-01", "w", event.Event{}); err != nil {
		t.Fatalf("send after revive: %v", err)
	}
	if st := trA.Stats(); st.Dials != 1 {
		t.Fatalf("dials = %d, want 1: a machine-down answer must keep the pooled connection", st.Dials)
	}
}

// A peer's response is bytes off a wire: one that accounts for more (or
// fewer) deliveries than the request carried, or rejects a position the
// batch does not have, must not reach SendBatch's caller — the engines
// index the batch by reject and retire in-flight charges by the accepted
// count. The exchange is refused as an indeterminate protocol fault (the
// request did land) and the connection dropped.
func TestTCPGarbledResponseRefused(t *testing.T) {
	for name, resp := range map[string][]byte{
		"accepted beyond the batch": encodeResponse(nil, statusOK, 1_000_000, nil),
		"reject index out of range": encodeResponse(nil, statusOK, 0, []BatchReject{{Index: 1 << 30, Err: ErrRemoteReject}}),
		"nobody accounted for":      encodeResponse(nil, statusOK, 0, nil),
		"rejects out of order": encodeResponse(nil, statusOK, 0,
			[]BatchReject{{Index: 1, Err: ErrRemoteReject}, {Index: 0, Err: ErrRemoteReject}}),
	} {
		t.Run(name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go func() { // the fake peer: whatever is asked, answer resp
				for {
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						br, bw := bufio.NewReader(conn), bufio.NewWriter(conn)
						for {
							if _, err := readFrameInto(br, nil, 1<<20); err != nil {
								return
							}
							if writeFrame(bw, append([]byte{frame.HeaderRaw}, resp...)) != nil {
								return
							}
						}
					}()
				}
			}()
			tr, err := NewTCP(TCPConfig{Peers: map[string]string{"machine-01": ln.Addr().String()}})
			if err != nil {
				t.Fatal(err)
			}
			c := New(Config{
				Names:     []string{"machine-00", "machine-01"},
				Local:     []string{"machine-00"},
				Transport: tr,
				Retry:     RetryConfig{Attempts: 1},
			})
			tr.Serve(c)
			defer c.Close()

			ds := []Delivery{{Worker: "w", Ev: event.Event{Key: "a"}}}
			if name == "rejects out of order" {
				ds = append(ds, Delivery{Worker: "w", Ev: event.Event{Key: "b"}})
			}
			accepted, rejects, err := c.SendBatch("machine-01", ds)
			if !IsTransient(err) || !IsIndeterminate(err) {
				t.Fatalf("SendBatch = %d, %v, %v; want an indeterminate transient protocol fault", accepted, rejects, err)
			}
			if accepted != 0 || rejects != nil {
				t.Fatalf("a refused response still leaked accepted=%d rejects=%v", accepted, rejects)
			}
			if got := c.DeliveryStats().IndeterminateLost; got != uint64(len(ds)) {
				t.Fatalf("IndeterminateLost = %d, want %d", got, len(ds))
			}
		})
	}
}

// TestReceivedDeliveriesKeepTheirBytes: the deliveries of one frame sit
// in a queue, and a consumer reads them, while the connection decodes
// the frames after it into the same chunk. No key or value changes
// under the consumer or while it is held, nil and empty values included,
// whether it was carved or copied on its own past the carve limit.
func TestReceivedDeliveriesKeepTheirBytes(t *testing.T) {
	sender, host, _, _ := startTCPPair(t, TCPConfig{})
	const frames, perFrame = 200, 8
	want := func(f, i int) event.Event {
		ev := event.Event{Key: fmt.Sprintf("f%03d/d%d", f, i), Seq: uint64(f*perFrame + i)}
		switch {
		case i == 5: // nil value
		case i == 6:
			ev.Value = []byte{}
		case i == 7 && f%10 == 0:
			ev.Value = bytes.Repeat([]byte{byte(f)}, recvMaxCarve+1+f)
		default:
			ev.Value = bytes.Repeat([]byte{byte(f*perFrame + i)}, 1+(f*131+i*977)%3000)
		}
		return ev
	}
	check := func(ev event.Event) error {
		f, i := int(ev.Seq)/perFrame, int(ev.Seq)%perFrame
		w := want(f, i)
		if ev.Key != w.Key || !bytes.Equal(ev.Value, w.Value) || (ev.Value == nil) != (w.Value == nil) {
			return fmt.Errorf("frame %d delivery %d: key %q, %d value bytes (nil %v); want %q, %d (nil %v)",
				f, i, ev.Key, len(ev.Value), ev.Value == nil, w.Key, len(w.Value), w.Value == nil)
		}
		return nil
	}

	// Room for four frames: the connection decodes up to four frames
	// ahead of the consumer into the chunk the consumer is reading.
	queued := make(chan event.Event, 4*perFrame)
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
		for _, d := range ds {
			queued <- d.Ev
		}
		return nil
	})
	var held []event.Event
	consumed := make(chan error, 1)
	go func() {
		var err error
		for ev := range queued {
			if e := check(ev); e != nil && err == nil {
				err = e
			}
			held = append(held, ev)
		}
		consumed <- err
	}()
	for f := range frames {
		ds := make([]Delivery, perFrame)
		for i := range ds {
			ds[i] = Delivery{Worker: "U1", Ev: want(f, i)}
		}
		if accepted, _, err := sender.SendBatch("machine-01", ds); err != nil || accepted != perFrame {
			t.Fatalf("frame %d: accepted %d of %d, %v", f, accepted, perFrame, err)
		}
	}
	close(queued)
	if err := <-consumed; err != nil {
		t.Fatalf("a queued delivery changed while later frames were decoded: %v", err)
	}
	if len(held) != frames*perFrame {
		t.Fatalf("consumed %d deliveries, want %d", len(held), frames*perFrame)
	}
	for _, ev := range held {
		if err := check(ev); err != nil {
			t.Fatalf("a held delivery changed after all frames were decoded: %v", err)
		}
	}
}
