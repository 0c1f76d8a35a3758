package cluster

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"muppet/internal/event"
	"muppet/internal/queue"
)

// Transport conformance suite: every test below runs against each
// topology a two-machine cluster can be wired in — the legacy
// single-process Cluster, two Clusters linked by the InProc transport,
// and two Clusters linked by TCP over loopback — asserting the
// behavioral contract of doc.go holds identically on all of them.
// machine-00 is always hosted by Sender; machine-01 by Host.

var conformanceNames = []string{"machine-00", "machine-01"}

type conformanceFixture struct {
	Sender *Cluster
	Host   *Cluster
	// Kill makes machine-01 dead/unreachable the way this topology
	// fails in production; Restart brings it back, re-installing the
	// host-side handlers via install. Close tears the fixture down.
	Kill    func()
	Restart func(t *testing.T, install func(host *Cluster))
	Close   func()
}

// forEachTransport runs fn against every topology. install registers
// machine-01's handlers on the hosting cluster; it is re-invoked by
// Restart for topologies that rebuild the host node.
func forEachTransport(t *testing.T, install func(host *Cluster), fn func(t *testing.T, fx *conformanceFixture)) {
	t.Run("single", func(t *testing.T) {
		c := New(Config{Names: conformanceNames})
		install(c)
		fx := &conformanceFixture{
			Sender: c,
			Host:   c,
			Kill:   func() { c.Crash("machine-01") },
			Restart: func(t *testing.T, install func(*Cluster)) {
				c.Revive("machine-01")
			},
			Close: func() { c.Close() },
		}
		defer fx.Close()
		fn(t, fx)
	})

	t.Run("inproc", func(t *testing.T) {
		reg := NewInProc()
		a := New(Config{Names: conformanceNames, Local: []string{"machine-00"}, Transport: reg})
		b := New(Config{Names: conformanceNames, Local: []string{"machine-01"}, Transport: reg})
		reg.Register(a)
		reg.Register(b)
		install(b)
		fx := &conformanceFixture{
			Sender: a,
			Host:   b,
			Kill:   func() { b.Crash("machine-01") },
			Restart: func(t *testing.T, install func(*Cluster)) {
				// Host first, then the sender's presumption (doc.go).
				b.Revive("machine-01")
				a.Revive("machine-01")
			},
			Close: func() { a.Close(); b.Close() },
		}
		defer fx.Close()
		fn(t, fx)
	})

	t.Run("tcp", func(t *testing.T) {
		startHost := func(t *testing.T, listen string, install func(*Cluster)) (*Cluster, string) {
			tr, err := NewTCP(TCPConfig{Listen: listen})
			if err != nil {
				t.Fatalf("host listen: %v", err)
			}
			b := New(Config{Names: conformanceNames, Local: []string{"machine-01"}, Transport: tr})
			tr.Serve(b)
			install(b)
			return b, tr.Addr()
		}
		host, addr := startHost(t, "127.0.0.1:0", install)
		trA, err := NewTCP(TCPConfig{
			Peers:        map[string]string{"machine-01": addr},
			RetryBackoff: time.Millisecond,
			MaxBackoff:   5 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("sender transport: %v", err)
		}
		a := New(Config{Names: conformanceNames, Local: []string{"machine-00"}, Transport: trA})
		trA.Serve(a)
		fx := &conformanceFixture{Sender: a}
		fx.Host = host
		fx.Kill = func() { fx.Host.Close() }
		fx.Restart = func(t *testing.T, install func(*Cluster)) {
			// A production restart comes back on the same address; the
			// sender's redial finds it once Revive resets the backoff.
			deadline := time.Now().Add(2 * time.Second)
			for {
				h, err := func() (h *Cluster, err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("%v", r)
						}
					}()
					tr, err := NewTCP(TCPConfig{Listen: addr})
					if err != nil {
						return nil, err
					}
					h = New(Config{Names: conformanceNames, Local: []string{"machine-01"}, Transport: tr})
					tr.Serve(h)
					return h, nil
				}()
				if err == nil {
					fx.Host = h
					install(h)
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("restart host: %v", err)
				}
				time.Sleep(5 * time.Millisecond) // port may linger briefly
			}
			a.Revive("machine-01")
		}
		fx.Close = func() { a.Close(); fx.Host.Close() }
		defer fx.Close()
		fn(t, fx)
	})
}

// recorder is a race-safe host-side handler recording deliveries.
type recorder struct {
	mu   sync.Mutex
	got  []Delivery
	deny func(d *Delivery) error // optional per-delivery rejection
}

func (r *recorder) install(host *Cluster) {
	host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
		var errs []error
		for i := range ds {
			if err := r.accept(ds[i]); err != nil {
				if errs == nil {
					errs = make([]error, len(ds))
				}
				errs[i] = err
			}
		}
		return errs
	})
}

func (r *recorder) accept(d Delivery) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.deny != nil {
		if err := r.deny(&d); err != nil {
			return err
		}
	}
	r.got = append(r.got, d)
	return nil
}

func (r *recorder) deliveries() []Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Delivery(nil), r.got...)
}

func TestConformanceDelivery(t *testing.T) {
	rec := &recorder{}
	forEachTransport(t, rec.install, func(t *testing.T, fx *conformanceFixture) {
		rec.mu.Lock()
		rec.got, rec.deny = nil, nil
		rec.mu.Unlock()

		evs := []event.Event{
			{Stream: "S1", TS: 42, Seq: 7, Key: "k1", Value: []byte("payload"), Ingress: 99},
			{Stream: "S1", TS: -1, Key: "k2", Value: nil},     // nil value
			{Stream: "S2", TS: 0, Key: "k3", Value: []byte{}}, // empty, non-nil
		}
		for i, ev := range evs {
			if err := sendOne(fx.Sender, "machine-01", fmt.Sprintf("U1#%d", i), ev); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		got := rec.deliveries()
		if len(got) != len(evs) {
			t.Fatalf("delivered %d events, want %d", len(got), len(evs))
		}
		for i, d := range got {
			if d.Worker != fmt.Sprintf("U1#%d", i) {
				t.Errorf("delivery %d worker = %q", i, d.Worker)
			}
			want := evs[i]
			if d.Ev.Stream != want.Stream || d.Ev.TS != want.TS || d.Ev.Seq != want.Seq ||
				d.Ev.Key != want.Key || d.Ev.Ingress != want.Ingress {
				t.Errorf("delivery %d = %+v, want %+v", i, d.Ev, want)
			}
			if string(d.Ev.Value) != string(want.Value) {
				t.Errorf("delivery %d value = %q, want %q", i, d.Ev.Value, want.Value)
			}
			if (d.Ev.Value == nil) != (want.Value == nil) {
				t.Errorf("delivery %d lost the nil/empty distinction: got nil=%v want nil=%v",
					i, d.Ev.Value == nil, want.Value == nil)
			}
		}
	})
}

func TestConformanceBatchAccounting(t *testing.T) {
	rec := &recorder{}
	forEachTransport(t, rec.install, func(t *testing.T, fx *conformanceFixture) {
		rec.mu.Lock()
		rec.got = nil
		rec.deny = func(d *Delivery) error {
			switch d.Ev.Key {
			case "overflow":
				return queue.ErrOverflow
			case "closed":
				return queue.ErrClosed
			}
			return nil
		}
		rec.mu.Unlock()

		ds := []Delivery{
			{Worker: "w", Ev: event.Event{Key: "ok-0"}, Tag: 0},
			{Worker: "w", Ev: event.Event{Key: "overflow"}, Tag: 1},
			{Worker: "w", Ev: event.Event{Key: "ok-1"}, Tag: 2},
			{Worker: "w", Ev: event.Event{Key: "closed"}, Tag: 3},
			{Worker: "w", Ev: event.Event{Key: "ok-2"}, Tag: 4},
		}
		accepted, rejects, err := fx.Sender.SendBatch("machine-01", ds)
		if err != nil {
			t.Fatalf("SendBatch: %v", err)
		}
		// Atomic accounting: every delivery is either accepted or
		// individually rejected — no silent losses.
		if accepted+len(rejects) != len(ds) {
			t.Fatalf("accepted %d + rejects %d != batch %d", accepted, len(rejects), len(ds))
		}
		if accepted != 3 || len(rejects) != 2 {
			t.Fatalf("accepted=%d rejects=%v", accepted, rejects)
		}
		wantRej := map[int]error{1: queue.ErrOverflow, 3: queue.ErrClosed}
		for _, rj := range rejects {
			want, ok := wantRej[rj.Index]
			if !ok {
				t.Errorf("unexpected reject index %d", rj.Index)
				continue
			}
			if !errors.Is(rj.Err, want) {
				t.Errorf("reject %d: err = %v, want %v (sentinel must survive the transport)", rj.Index, rj.Err, want)
			}
		}
		if got := rec.deliveries(); len(got) != accepted {
			t.Fatalf("host recorded %d deliveries, want %d", len(got), accepted)
		}
	})
}

func TestConformanceMachineDown(t *testing.T) {
	rec := &recorder{}
	forEachTransport(t, rec.install, func(t *testing.T, fx *conformanceFixture) {
		fx.Kill()
		// A dead destination surfaces one of two ways: the hosting node
		// answers authoritatively (ErrMachineDown, detect-on-send), or
		// the node itself is unreachable and every attempt fails with a
		// transient fault — never success, never a wedge. The first send
		// may race connection teardown, so allow a bounded window.
		var err error
		sawDown := false
		for i := 0; i < 100; i++ {
			err = sendOne(fx.Sender, "machine-01", "w", event.Event{Key: "k"})
			if errors.Is(err, ErrMachineDown) {
				sawDown = true
				break
			}
			if err != nil && !IsTransient(err) {
				t.Fatalf("send to dead machine: err = %v, want ErrMachineDown or a transient fault", err)
			}
			time.Sleep(time.Millisecond)
		}
		if err == nil {
			t.Fatal("send to dead machine succeeded")
		}
		if !sawDown {
			// Unreachable node: escalation is the recovery detector's
			// job — K consecutive transient failures confirm suspicion.
			// Model the confirmation the detector would make.
			fx.Sender.Crash("machine-01")
		}
		if _, _, err := fx.Sender.SendBatch("machine-01", []Delivery{{Worker: "w"}}); !errors.Is(err, ErrMachineDown) {
			t.Fatalf("batch to dead machine: err = %v, want ErrMachineDown", err)
		}
		// The presumption is flipped — by detect-on-send or by the
		// modeled suspicion confirmation — and sends now fail fast.
		if fx.Sender.Machine("machine-01").Alive() {
			t.Fatal("sender still presumes the dead machine alive")
		}
	})
}

func TestConformanceReconnect(t *testing.T) {
	rec := &recorder{}
	forEachTransport(t, rec.install, func(t *testing.T, fx *conformanceFixture) {
		if err := sendOne(fx.Sender, "machine-01", "w", event.Event{Key: "before"}); err != nil {
			t.Fatalf("send before kill: %v", err)
		}
		fx.Kill()
		for i := 0; i < 100; i++ {
			// Any failure signal — authoritative or transient — shows the
			// kill has landed.
			if sendOne(fx.Sender, "machine-01", "w", event.Event{}) != nil {
				break
			}
			time.Sleep(time.Millisecond)
		}
		fx.Restart(t, rec.install)
		// After restart + Revive the sender must reach the machine again
		// without rebuilding the sender node.
		var err error
		for i := 0; i < 200; i++ {
			if err = sendOne(fx.Sender, "machine-01", "w", event.Event{Key: "after"}); err == nil {
				break
			}
			fx.Sender.Revive("machine-01") // sends inside the redial window re-flip the presumption
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("send after restart: %v", err)
		}
		got := rec.deliveries()
		if len(got) == 0 || got[len(got)-1].Ev.Key != "after" {
			t.Fatalf("post-restart delivery missing; recorded %d", len(got))
		}
	})
}

// A hung peer — a listener that accepts connections and reads requests
// but never answers — must surface as a transient IO-timeout fault
// within the configured deadline, never wedge the sender. (Machine-down
// is then the suspicion window's call, not the transport's.)
func TestConformanceHungPeer(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go io.Copy(io.Discard, conn) // swallow requests, answer nothing
		}
	}()

	tr, err := NewTCP(TCPConfig{
		Peers:     map[string]string{"machine-01": ln.Addr().String()},
		IOTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := New(Config{
		Names:     conformanceNames,
		Local:     []string{"machine-00"},
		Transport: tr,
		Retry:     RetryConfig{Attempts: 2},
	})
	tr.Serve(c)
	defer c.Close()

	start := time.Now()
	err = sendOne(c, "machine-01", "w", event.Event{Key: "k"})
	elapsed := time.Since(start)
	if !IsTransient(err) {
		t.Fatalf("hung peer: err = %v, want a transient IO-timeout fault", err)
	}
	// The first attempt runs out the 50ms IO deadline, which arms the
	// redial window; the second fails fast inside it. One deadline per
	// exhausted send. Anything near 5s means the deadline is not being
	// armed and the sender would wedge on a real hung peer.
	var te *TransientError
	if !errors.As(err, &te) || te.Op != "backoff" {
		t.Fatalf("second attempt: err = %v, want the fail-fast backoff fault", err)
	}
	if st := tr.Stats(); st.FramesOut != 1 {
		t.Fatalf("frames out = %d, want 1: only the first attempt may wait on the hung peer", st.FramesOut)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("hung peer held the sender for %v", elapsed)
	}
	if !c.Machine("machine-01").Alive() {
		t.Fatal("transport decided machine-down on its own; that escalation belongs to the suspicion window")
	}
}

func TestConformanceConcurrentSenders(t *testing.T) {
	var received atomic.Int64
	install := func(host *Cluster) {
		host.SetBatchHandler("machine-01", func(ds []Delivery) []error {
			received.Add(int64(len(ds)))
			return nil
		})
	}
	forEachTransport(t, install, func(t *testing.T, fx *conformanceFixture) {
		received.Store(0)
		const goroutines, batches, perBatch = 8, 25, 16
		var wg sync.WaitGroup
		var sent atomic.Int64
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				ds := make([]Delivery, perBatch)
				for b := 0; b < batches; b++ {
					for i := range ds {
						ds[i] = Delivery{Worker: "w", Ev: event.Event{
							Key:   fmt.Sprintf("g%d-b%d-%d", g, b, i),
							Value: []byte("v"),
						}}
					}
					accepted, rejects, err := fx.Sender.SendBatch("machine-01", ds)
					if err != nil {
						t.Errorf("g%d b%d: %v", g, b, err)
						return
					}
					if accepted+len(rejects) != perBatch {
						t.Errorf("g%d b%d: accepted %d + rejects %d != %d", g, b, accepted, len(rejects), perBatch)
					}
					sent.Add(int64(accepted))
				}
			}(g)
		}
		wg.Wait()
		if received.Load() != sent.Load() {
			t.Fatalf("host received %d, senders accepted %d", received.Load(), sent.Load())
		}
	})
}
