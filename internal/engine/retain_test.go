package engine

import (
	"fmt"
	"testing"
	"unsafe"

	"muppet/internal/cluster"
	"muppet/internal/event"
	"muppet/internal/slate"
)

// byteSpan is the address range [lo, hi) of some bytes.
type byteSpan struct{ lo, hi uintptr }

func spanOf(p *byte, n int) byteSpan {
	lo := uintptr(unsafe.Pointer(p))
	return byteSpan{lo, lo + uintptr(n)}
}

func (s byteSpan) union(t byteSpan) byteSpan {
	if s.hi == 0 {
		return t
	}
	return byteSpan{min(s.lo, t.lo), max(s.hi, t.hi)}
}

func (s byteSpan) overlaps(t byteSpan) bool { return t.lo < s.hi && s.lo < t.hi }

// TestRetainedEventsHoldNoFrameBytes: the deliveries a TCP frame decodes
// to share that frame's one buffer, so everything that keeps an event
// past its delivery keeps its own copy — the slate cache's key, a lost
// log entry, a sink subscriber's and a sink handler's event — or a
// single retained key would pin the whole frame.
func TestRetainedEventsHoldNoFrameBytes(t *testing.T) {
	names := []string{"machine-00", "machine-01"}
	trB, err := cluster.NewTCP(cluster.TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	host := cluster.New(cluster.Config{Names: names, Local: []string{"machine-01"}, Transport: trB})
	trB.Serve(host)
	defer host.Close()
	trA, err := cluster.NewTCP(cluster.TCPConfig{Peers: map[string]string{"machine-01": trB.Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	sender := cluster.New(cluster.Config{Names: names, Local: []string{"machine-00"}, Transport: trA})
	trA.Serve(sender)
	defer sender.Close()

	cache := slate.NewSharded(slate.ShardedConfig{})
	lost := NewLostLog(0)
	sink := NewSink()
	sub := sink.Subscribe("S2", 64)
	var handled []event.Event
	sink.Attach("S2", OutputHandlerFunc(func(ev event.Event) { handled = append(handled, ev) }))

	var frame byteSpan
	var bytesIn int
	host.SetBatchHandler("machine-01", func(ds []cluster.Delivery) []error {
		for _, d := range ds {
			frame = frame.union(spanOf(unsafe.StringData(d.Ev.Key), len(d.Ev.Key)))
			frame = frame.union(spanOf(unsafe.SliceData(d.Ev.Value), len(d.Ev.Value)))
			bytesIn += len(d.Ev.Key) + len(d.Ev.Value)
			cache.Put(slate.Key{Updater: d.Worker, Key: d.Ev.Key}, []byte("slate"))
			lost.Record(d.Worker, d.Ev, LossOverflow)
			sink.Record(d.Ev)
		}
		return nil
	})

	const n = 16
	ds := make([]cluster.Delivery, n)
	for i := range ds {
		ds[i] = cluster.Delivery{Worker: "U1", Ev: event.Event{Stream: "S2", Seq: uint64(i), Key: fmt.Sprintf("user%d", i), Value: []byte(fmt.Sprintf(`{"n":%d}`, i))}}
	}
	if accepted, rejects, err := sender.SendBatch("machine-01", ds); err != nil || accepted != n || len(rejects) != 0 {
		t.Fatalf("send: accepted %d rejects %v err %v", accepted, rejects, err)
	}
	// The premise: the deliveries' keys and values lie in one buffer
	// barely larger than themselves, the frame they arrived in.
	if size := int(frame.hi - frame.lo); size > 2*bytesIn+256 {
		t.Fatalf("decoded keys and values span %d bytes for %d bytes of them: not one frame's buffer", size, bytesIn)
	}

	held := func(what string, s byteSpan) {
		t.Helper()
		if s.hi > s.lo && frame.overlaps(s) {
			t.Errorf("%s holds bytes of the frame it arrived in", what)
		}
	}
	keys := cache.Keys()
	if len(keys) != n {
		t.Fatalf("cache holds %d slates, want %d", len(keys), n)
	}
	for _, k := range keys {
		held("cached slate key "+k.Key, spanOf(unsafe.StringData(k.Key), len(k.Key)))
	}
	recent := lost.Recent()
	if len(recent) != n {
		t.Fatalf("lost log holds %d entries, want %d", len(recent), n)
	}
	for _, le := range recent {
		held("lost-log key "+le.Ev.Key, spanOf(unsafe.StringData(le.Ev.Key), len(le.Ev.Key)))
		held("lost-log value of "+le.Ev.Key, spanOf(unsafe.SliceData(le.Ev.Value), len(le.Ev.Value)))
	}
	if len(sub.C()) != n || len(handled) != n {
		t.Fatalf("sink delivered %d events to its subscriber and %d to its handler, want %d", len(sub.C()), len(handled), n)
	}
	for i := 0; i < n; i++ {
		for what, ev := range map[string]event.Event{"subscriber": <-sub.C(), "handler": handled[i]} {
			held("sink "+what+" key "+ev.Key, spanOf(unsafe.StringData(ev.Key), len(ev.Key)))
			held("sink "+what+" value of "+ev.Key, spanOf(unsafe.SliceData(ev.Value), len(ev.Value)))
		}
	}
}
