package hashring

import (
	"fmt"
	"testing"
)

func BenchmarkLookup(b *testing.B) {
	r := New(nodes(16), 0)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Lookup(keys[i%len(keys)])
	}
}

func BenchmarkLookupRoute(b *testing.B) {
	r := New(nodes(16), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.LookupRoute("U1", "user12345")
	}
}

func BenchmarkLookupNReplicas(b *testing.B) {
	r := New(nodes(16), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.AppendN(nil, Hash("user12345"), 3)
	}
}
