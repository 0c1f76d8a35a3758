package event

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestLessOrdersByTimestampFirst(t *testing.T) {
	a := Event{Stream: "z", TS: 1, Seq: 9}
	b := Event{Stream: "a", TS: 2, Seq: 0}
	if !a.Less(b) {
		t.Fatalf("expected %v < %v", a, b)
	}
	if b.Less(a) {
		t.Fatalf("expected !(%v < %v)", b, a)
	}
}

func TestLessBreaksTiesByStreamThenSeq(t *testing.T) {
	a := Event{Stream: "a", TS: 5, Seq: 7}
	b := Event{Stream: "b", TS: 5, Seq: 1}
	if !a.Less(b) {
		t.Fatalf("stream tiebreak failed: expected %v < %v", a, b)
	}
	c := Event{Stream: "a", TS: 5, Seq: 8}
	if !a.Less(c) {
		t.Fatalf("seq tiebreak failed: expected %v < %v", a, c)
	}
}

func TestLessIsIrreflexive(t *testing.T) {
	e := Event{Stream: "s", TS: 3, Seq: 4}
	if e.Less(e) {
		t.Fatal("event must not be less than itself")
	}
}

func TestCompareAgreesWithLess(t *testing.T) {
	f := func(ts1, ts2 int64, s1, s2 uint8, q1, q2 uint64) bool {
		a := Event{Stream: string(rune('a' + s1%4)), TS: Timestamp(ts1 % 100), Seq: q1 % 8}
		b := Event{Stream: string(rune('a' + s2%4)), TS: Timestamp(ts2 % 100), Seq: q2 % 8}
		c := a.Compare(b)
		switch {
		case a.Less(b):
			return c == -1 && b.Compare(a) == 1
		case b.Less(a):
			return c == 1 && b.Compare(a) == -1
		default:
			return c == 0 && b.Compare(a) == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringTruncatesLongValues(t *testing.T) {
	long := make([]byte, 100)
	for i := range long {
		long[i] = 'a'
	}
	e := Event{Stream: "s", Value: long}
	s := e.String()
	if len(s) > 120 {
		t.Fatalf("string too long: %d bytes", len(s))
	}
}

func TestSizeAccountsForAllFields(t *testing.T) {
	e := Event{Stream: "abc", Key: "de", Value: []byte("fgh")}
	if got := e.Size(); got != 3+2+3+24 {
		t.Fatalf("Size = %d, want %d", got, 3+2+3+24)
	}
}

func TestMinHeapDrainsInOrder(t *testing.T) {
	h := NewMinHeap()
	rng := rand.New(rand.NewSource(42))
	var want []Event
	for i := 0; i < 500; i++ {
		e := Event{
			Stream: string(rune('a' + rng.Intn(3))),
			TS:     Timestamp(rng.Intn(50)),
			Seq:    uint64(i),
		}
		want = append(want, e)
		h.Push(e)
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	for i, w := range want {
		got := h.Pop()
		if got.Compare(w) != 0 {
			t.Fatalf("pop %d: got %v, want %v", i, got, w)
		}
	}
	if h.Len() != 0 {
		t.Fatalf("heap not empty: %d", h.Len())
	}
}

func TestMinHeapPeekDoesNotRemove(t *testing.T) {
	h := NewMinHeap()
	h.Push(Event{TS: 2})
	h.Push(Event{TS: 1})
	if h.Peek().TS != 1 {
		t.Fatalf("peek = %v, want ts 1", h.Peek())
	}
	if h.Len() != 2 {
		t.Fatalf("peek removed an element, len = %d", h.Len())
	}
}

// popAll pushes every event of the streams onto a MinHeap and pops
// them back out, the merge the reference executor performs.
func popAll(streams ...[]Event) []Event {
	h := NewMinHeap()
	for _, s := range streams {
		for _, e := range s {
			h.Push(e)
		}
	}
	var out []Event
	for h.Len() > 0 {
		out = append(out, h.Pop())
	}
	return out
}

func TestMergeInterleavesStreams(t *testing.T) {
	s1 := []Event{{Stream: "s1", TS: 1}, {Stream: "s1", TS: 5}}
	s2 := []Event{{Stream: "s2", TS: 3}, {Stream: "s2", TS: 4}}
	out := popAll(s1, s2)
	var ts []Timestamp
	for _, e := range out {
		ts = append(ts, e.TS)
	}
	want := []Timestamp{1, 3, 4, 5}
	for i := range want {
		if ts[i] != want[i] {
			t.Fatalf("merge order %v, want %v", ts, want)
		}
	}
}

func TestMergePropertySortedAndComplete(t *testing.T) {
	f := func(tsa, tsb []int16) bool {
		var s1, s2 []Event
		for i, v := range tsa {
			s1 = append(s1, Event{Stream: "a", TS: Timestamp(v), Seq: uint64(i)})
		}
		for i, v := range tsb {
			s2 = append(s2, Event{Stream: "b", TS: Timestamp(v), Seq: uint64(i)})
		}
		out := popAll(s1, s2)
		if len(out) != len(s1)+len(s2) {
			return false
		}
		for i := 1; i < len(out); i++ {
			if out[i].Less(out[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
