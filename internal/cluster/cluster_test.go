package cluster

import (
	"errors"
	"sync"
	"testing"

	"muppet/internal/event"
)

// sendOne sends a frame of one — how a single event reaches a machine —
// and folds its rejection, if any, into the error.
func sendOne(c *Cluster, machine, worker string, ev event.Event) error {
	_, rejects, err := c.SendBatch(machine, []Delivery{{Worker: worker, Ev: ev}})
	if err == nil && len(rejects) > 0 {
		err = rejects[0].Err
	}
	return err
}

// onEach registers a batch handler that hands h each delivery in turn.
func onEach(c *Cluster, machine string, h func(worker string, ev event.Event) error) {
	c.SetBatchHandler(machine, func(ds []Delivery) []error {
		var errs []error
		for i, d := range ds {
			if err := h(d.Worker, d.Ev); err != nil {
				if errs == nil {
					errs = make([]error, len(ds))
				}
				errs[i] = err
			}
		}
		return errs
	})
}

func TestSendDeliversToHandler(t *testing.T) {
	c := New(Config{Machines: 2})
	var got event.Event
	var worker string
	onEach(c, "machine-01", func(w string, e event.Event) error {
		worker, got = w, e
		return nil
	})
	err := sendOne(c, "machine-01", "U1#0", event.Event{Key: "k"})
	if err != nil {
		t.Fatal(err)
	}
	if worker != "U1#0" || got.Key != "k" {
		t.Fatalf("delivered %q %v", worker, got)
	}
}

func TestSendToCrashedMachineFails(t *testing.T) {
	c := New(Config{Machines: 2})
	onEach(c, "machine-00", func(_ string, _ event.Event) error { return nil })
	c.Crash("machine-00")
	if err := sendOne(c, "machine-00", "w", event.Event{}); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("err = %v, want ErrMachineDown", err)
	}
	c.Revive("machine-00")
	if err := sendOne(c, "machine-00", "w", event.Event{}); err != nil {
		t.Fatalf("send after revive: %v", err)
	}
}

func TestSendUnknownMachine(t *testing.T) {
	c := New(Config{Machines: 1})
	if err := sendOne(c, "machine-99", "w", event.Event{}); err == nil {
		t.Fatal("send to unknown machine succeeded")
	}
}

func TestSendWithoutHandler(t *testing.T) {
	c := New(Config{Machines: 1})
	if err := sendOne(c, "machine-00", "w", event.Event{}); !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err = %v, want ErrNoHandler", err)
	}
}

func TestNetworkAccounting(t *testing.T) {
	c := New(Config{Machines: 1})
	onEach(c, "machine-00", func(_ string, _ event.Event) error { return nil })
	for i := 0; i < 10; i++ {
		sendOne(c, "machine-00", "w", event.Event{})
	}
	if sends := c.Sends(); sends != 10 {
		t.Fatalf("sends = %d", sends)
	}
}

func TestMachineNamesSorted(t *testing.T) {
	c := New(Config{Machines: 3})
	names := c.MachineNames()
	want := []string{"machine-00", "machine-01", "machine-02"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestConcurrentSendsAndCrash(t *testing.T) {
	c := New(Config{Machines: 2})
	var delivered sync.Map
	onEach(c, "machine-01", func(w string, e event.Event) error {
		delivered.Store(e.Seq, true)
		return nil
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sendOne(c, "machine-01", "w", event.Event{Seq: uint64(g*100 + i)})
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.Crash("machine-01")
		c.Revive("machine-01")
	}()
	wg.Wait()
}

func TestSendBatchHandsHandlerEveryDeliveryInOrder(t *testing.T) {
	c := New(Config{Machines: 1})
	var got []string
	onEach(c, "machine-00", func(worker string, e event.Event) error {
		got = append(got, worker+":"+e.Key)
		return nil
	})
	accepted, rejects, err := c.SendBatch("machine-00", []Delivery{
		{Worker: "f", Ev: event.Event{Key: "a"}},
		{Worker: "g", Ev: event.Event{Key: "b"}},
	})
	if err != nil || accepted != 2 || len(rejects) != 0 {
		t.Fatalf("SendBatch = %d, %v, %v", accepted, rejects, err)
	}
	if len(got) != 2 || got[0] != "f:a" || got[1] != "g:b" {
		t.Fatalf("deliveries = %v", got)
	}
}

func TestSendBatchUsesBatchHandlerAndReportsRejects(t *testing.T) {
	c := New(Config{Machines: 1})
	boom := errors.New("full")
	c.SetBatchHandler("machine-00", func(ds []Delivery) []error {
		errs := make([]error, len(ds))
		errs[1] = boom
		return errs
	})
	accepted, rejects, err := c.SendBatch("machine-00", []Delivery{
		{Worker: "f", Ev: event.Event{Key: "a"}},
		{Worker: "f", Ev: event.Event{Key: "b"}},
		{Worker: "f", Ev: event.Event{Key: "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if accepted != 2 || len(rejects) != 1 || rejects[0].Index != 1 || rejects[0].Err != boom {
		t.Fatalf("accepted=%d rejects=%v", accepted, rejects)
	}
}

func TestSendBatchToCrashedMachineFailsWhole(t *testing.T) {
	c := New(Config{Machines: 1})
	onEach(c, "machine-00", func(_ string, _ event.Event) error { return nil })
	c.Crash("machine-00")
	_, _, err := c.SendBatch("machine-00", []Delivery{{Worker: "f"}})
	if err != ErrMachineDown {
		t.Fatalf("err = %v, want ErrMachineDown", err)
	}
}

func TestSendBatchChargesOneHop(t *testing.T) {
	c := New(Config{Machines: 1})
	onEach(c, "machine-00", func(_ string, _ event.Event) error { return nil })
	ds := make([]Delivery, 64)
	if _, _, err := c.SendBatch("machine-00", ds); err != nil {
		t.Fatal(err)
	}
	if sends := c.Sends(); sends != 1 {
		t.Fatalf("sends=%d — batch should cost one send", sends)
	}
}
