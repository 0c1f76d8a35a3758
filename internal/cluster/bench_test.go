package cluster

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"muppet/internal/frame"
	"muppet/internal/workload"
)

// tweetDeliveries builds one batch out of the load harness's own
// events: the workload generator's tweets over 100 k Zipf users, about
// 165 bytes per delivery on the wire.
func tweetDeliveries(n int) []Delivery {
	tweets := workload.New(workload.Config{Seed: 1, Users: 100_000}).Tweets("S2", n)
	ds := make([]Delivery, n)
	for i, ev := range tweets {
		ev.Ingress = 1_700_000_000_000_000_000 + int64(i)
		ds[i] = Delivery{Worker: "U_rep", Ev: ev, Tag: i}
	}
	return ds
}

// cpuTime is the process's user+system CPU time: both ends of a
// loopback exchange run in this process, so its delta over a benchmark
// loop is the whole exchange's CPU cost, waits excluded.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// tcpPair wires machine-00 (the returned sender) to a machine-01 that
// accepts everything, over loopback, and warms the pooled connection.
func tcpPair(b *testing.B) (*Cluster, *TCP) {
	trB, err := NewTCP(TCPConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	h := New(Config{Names: conformanceNames, Local: []string{"machine-01"}, Transport: trB})
	trB.Serve(h)
	h.SetBatchHandler("machine-01", func(ds []Delivery) []error { return nil })
	trA, err := NewTCP(TCPConfig{Peers: map[string]string{"machine-01": trB.Addr()}})
	if err != nil {
		b.Fatal(err)
	}
	a := New(Config{Names: conformanceNames, Local: []string{"machine-00"}, Transport: trA})
	trA.Serve(a)
	b.Cleanup(func() { a.Close(); h.Close() })
	// Warm the pooled connection so b.N measures exchanges, not the dial.
	if _, _, err := a.SendBatch("machine-01", tweetDeliveries(1)); err != nil {
		b.Fatal(err)
	}
	return a, trA
}

// BenchmarkTransportSendBatch measures one machine-addressed batch of
// tweets over loopback TCP (a full encode -> frame -> socket -> decode
// -> deliver -> respond exchange). It is the curve the emit outbox
// rides: what one delivery costs, both ends included, as a frame
// carries more of them. batch=1 is a worker emit before the outbox; a
// busy sender ships 32 and up.
func BenchmarkTransportSendBatch(b *testing.B) {
	for _, n := range []int{1, 8, 32, 256} {
		b.Run(fmt.Sprintf("tcp/tweets/batch=%d", n), func(b *testing.B) {
			a, trA := tcpPair(b)
			ds := tweetDeliveries(n)
			before := trA.Stats()
			b.ReportAllocs()
			b.ResetTimer()
			cpu := cpuTime(b)
			for i := 0; i < b.N; i++ {
				if _, _, err := a.SendBatch("machine-01", ds); err != nil {
					b.Fatal(err)
				}
			}
			cpu = cpuTime(b) - cpu
			b.StopTimer()
			st := trA.Stats()
			b.ReportMetric(float64(cpu.Microseconds())/float64(b.N*n), "cpu-us/delivery")
			b.ReportMetric(float64(st.BytesOut-before.BytesOut)/float64(st.FramesOut-before.FramesOut), "frame-bytes")
		})
	}
}

// BenchmarkEventFrameBody prices the frame codec on an event frame's
// body — encode at the sender plus decode at the receiver — against the
// raw body event frames now carry (wire.go). The difference is what
// deflate cost per exchange; body-bytes shows it bought nothing on
// tweet-sized deliveries.
func BenchmarkEventFrameBody(b *testing.B) {
	id := BatchID{Sender: "machine-00", Epoch: 1, Seq: 1}
	for _, n := range []int{1, 32} {
		plain := encodeRequest(nil, id, "machine-01", tweetDeliveries(n))
		b.Run(fmt.Sprintf("codec/batch=%d", n), func(b *testing.B) {
			var body []byte
			for i := 0; i < b.N; i++ {
				body = frame.AppendEncode(body[:0], plain)
				if _, err := frame.Decode(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body-bytes")
		})
		b.Run(fmt.Sprintf("raw/batch=%d", n), func(b *testing.B) {
			var body []byte
			for i := 0; i < b.N; i++ {
				body = append(append(body[:0], frame.HeaderRaw), plain...)
				if _, err := frame.Payload(body); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(body)), "body-bytes")
		})
	}
}
