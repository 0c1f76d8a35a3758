package event

import "container/heap"

// MinHeap is a priority queue of events ordered by the global
// deterministic order (TS, Stream, Seq). The reference executor uses it
// to feed events to functions in exactly the order Section 3 of the
// paper prescribes.
type MinHeap struct {
	h eventHeap
}

// NewMinHeap returns an empty heap.
func NewMinHeap() *MinHeap {
	return &MinHeap{}
}

// Push adds an event.
func (m *MinHeap) Push(e Event) {
	heap.Push(&m.h, e)
}

// Pop removes and returns the least event. It panics if the heap is
// empty; check Len first.
func (m *MinHeap) Pop() Event {
	return heap.Pop(&m.h).(Event)
}

// Peek returns the least event without removing it.
func (m *MinHeap) Peek() Event {
	return m.h[0]
}

// Len reports the number of buffered events.
func (m *MinHeap) Len() int { return len(m.h) }

type eventHeap []Event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].Less(h[j]) }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
