package ingress

import (
	"context"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"muppet/internal/cluster"
	"muppet/internal/event"
)

func ev(key string) event.Event {
	return event.Event{Stream: "S1", Key: key}
}

func TestPlanGroupsByMachinePreservingOrder(t *testing.T) {
	p := (&Driver{Machines: 2}).plan(4)
	p.Add("m1", cluster.Delivery{Worker: "f", Ev: ev("a"), Tag: 0})
	p.Add("m2", cluster.Delivery{Worker: "f", Ev: ev("b"), Tag: 1})
	p.Add("m1", cluster.Delivery{Worker: "g", Ev: ev("c"), Tag: 2})
	p.Add("m1", cluster.Delivery{Worker: "f", Ev: ev("d"), Tag: 3})
	if p.Deliveries() != 4 {
		t.Fatalf("deliveries = %d, want 4", p.Deliveries())
	}
	var machines []string
	groups := make(map[string][]cluster.Delivery)
	p.Each(func(m string, ds []cluster.Delivery) {
		machines = append(machines, m)
		groups[m] = ds
	})
	if len(machines) != 2 || machines[0] != "m1" || machines[1] != "m2" {
		t.Fatalf("machine order = %v, want [m1 m2] (first-seen order)", machines)
	}
	m1 := groups["m1"]
	if len(m1) != 3 || m1[0].Ev.Key != "a" || m1[1].Ev.Key != "c" || m1[2].Ev.Key != "d" {
		t.Fatalf("m1 group out of order: %v", m1)
	}
	if m1[2].Tag != 3 {
		t.Fatalf("tag not preserved: %d", m1[2].Tag)
	}
}

// TestPlanOutlivesGC: a released plan goes back to its driver's spare
// list with its groups' room but none of their deliveries, and the next
// batch takes it back after collections, which would have emptied a
// sync.Pool; one with room past spareDeliveries is left to the GC.
func TestPlanOutlivesGC(t *testing.T) {
	d := &Driver{Machines: 1}
	p := d.plan(64)
	p.Add("m1", cluster.Delivery{Worker: "f", Ev: ev("a")})
	g := p.groups["m1"]
	d.release(p)
	runtime.GC()
	runtime.GC()
	if got := d.plan(64); got != p || len(got.groups["m1"]) != 0 || cap(got.groups["m1"]) < 64 || len(got.order) != 0 {
		t.Fatalf("after two collections the driver took a new plan or a shrunk one (same %v)", got == p)
	}
	if g[0].Ev.Key != "" {
		t.Fatal("a released plan still holds its delivery's event")
	}
	big := d.plan(spareDeliveries + 1)
	big.Add("m1", cluster.Delivery{Worker: "f", Ev: ev("b")})
	d.release(big)
	if d.plan(1) == big {
		t.Fatal("a plan with room for more than spareDeliveries deliveries was kept")
	}
}

func TestDropTallyResult(t *testing.T) {
	tl := NewDropTally(3)
	if n, err := tl.Result(); n != 3 || err != nil {
		t.Fatalf("clean tally: n=%d err=%v", n, err)
	}
	tl.Drop(1, "overflow")
	tl.Drop(1, "overflow") // two deliveries of the same event
	tl.Drop(2, "machine-down")
	n, err := tl.Result()
	if n != 1 {
		t.Fatalf("accepted = %d, want 1", n)
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *BatchError", err)
	}
	if be.Events != 3 || be.Accepted != 1 || be.Dropped != 3 {
		t.Fatalf("batch error = %+v", be)
	}
	if be.Reasons["overflow"] != 2 || be.Reasons["machine-down"] != 1 {
		t.Fatalf("reasons = %v", be.Reasons)
	}
	if be.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestFromSliceSource(t *testing.T) {
	src := FromSlice([]event.Event{ev("a"), ev("b"), ev("c")})
	buf := make([]event.Event, 2)
	n, err := src.Next(buf)
	if n != 2 || err != nil {
		t.Fatalf("first Next: n=%d err=%v", n, err)
	}
	n, err = src.Next(buf)
	if n != 1 || err != io.EOF {
		t.Fatalf("second Next: n=%d err=%v, want 1, EOF", n, err)
	}
	n, err = src.Next(buf)
	if n != 0 || err != io.EOF {
		t.Fatalf("after EOF: n=%d err=%v", n, err)
	}
}

func TestTakeCapsAnEndlessSource(t *testing.T) {
	i := 0
	src := Take(FromFunc(func() (event.Event, bool) {
		i++
		return ev("k"), true
	}), 5)
	buf := make([]event.Event, 3)
	total := 0
	for {
		n, err := src.Next(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if total != 5 {
		t.Fatalf("yielded %d events, want 5", total)
	}
}

func TestRateLimitPacesBatches(t *testing.T) {
	src := RateLimit(Take(FromFunc(func() (event.Event, bool) { return ev("k"), true }), 60), 200)
	start := time.Now()
	buf := make([]event.Event, 32)
	total := 0
	for {
		n, err := src.Next(buf)
		total += n
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	if total != 60 {
		t.Fatalf("yielded %d events, want 60", total)
	}
	// 60 events at 200/s needs ~300ms; allow generous slack below.
	if elapsed < 200*time.Millisecond {
		t.Fatalf("60 events at 200/s took only %v — not paced", elapsed)
	}
}

// fakeIngester accepts everything, recording batch sizes, and can
// inject a partial-batch error.
type fakeIngester struct {
	batches []int
	partial bool
	fail    error
}

func (f *fakeIngester) IngestBatch(evs []event.Event) (int, error) {
	f.batches = append(f.batches, len(evs))
	if f.fail != nil {
		return 0, f.fail
	}
	if f.partial && len(evs) > 1 {
		return len(evs) - 1, &BatchError{Events: len(evs), Accepted: len(evs) - 1, Dropped: 1,
			Reasons: map[string]int{"overflow": 1}}
	}
	return len(evs), nil
}

func TestPumpBatchesAndAccounts(t *testing.T) {
	f := &fakeIngester{}
	evs := make([]event.Event, 10)
	for i := range evs {
		evs[i] = ev("k")
	}
	stats, err := Pump(context.Background(), f, FromSlice(evs), 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 10 || stats.Accepted != 10 || stats.Batches != 3 || stats.Dropped != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if len(f.batches) != 3 || f.batches[0] != 4 || f.batches[2] != 2 {
		t.Fatalf("batch sizes = %v", f.batches)
	}
}

func TestPumpContinuesThroughPartialBatches(t *testing.T) {
	f := &fakeIngester{partial: true}
	evs := make([]event.Event, 8)
	for i := range evs {
		evs[i] = ev("k")
	}
	stats, err := Pump(context.Background(), f, FromSlice(evs), 4)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != 8 || stats.Accepted != 6 || stats.Dropped != 2 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestPumpStopsOnHardError(t *testing.T) {
	f := &fakeIngester{fail: ErrStopped}
	evs := make([]event.Event, 8)
	stats, err := Pump(context.Background(), f, FromSlice(evs), 4)
	if err != ErrStopped {
		t.Fatalf("err = %v, want ErrStopped", err)
	}
	if stats.Batches != 1 {
		t.Fatalf("pump kept going after hard error: %+v", stats)
	}
}

func TestPumpHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeIngester{}
	_, err := Pump(ctx, f, FromFunc(func() (event.Event, bool) { return ev("k"), true }), 4)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(f.batches) != 0 {
		t.Fatal("pumped despite cancelled context")
	}
}
