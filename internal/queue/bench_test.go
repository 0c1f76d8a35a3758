package queue

import (
	"testing"

	"muppet/internal/event"
)

func BenchmarkPutGet(b *testing.B) {
	q := New[event.Event](1024, Drop)
	e := []event.Event{{Stream: "s", Key: "k"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PutBatch(e)
		q.TryGet()
	}
}

func BenchmarkPutGetContended(b *testing.B) {
	q := New[event.Event](4096, Block)
	e := []event.Event{{Stream: "s", Key: "k"}}
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			q.PutBatch(e)
			q.TryGet()
		}
	})
}
