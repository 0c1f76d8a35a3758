package query

import (
	"container/heap"
	"sort"
)

// bounded keeps the n best of the items offered to it (all of them when
// n <= 0): a heap whose root is the worst item kept, so a better
// candidate replaces it in O(log n) and a worse one costs one compare.
type bounded[T any] struct {
	items  []T
	n      int
	before func(a, b T) bool // a ranks ahead of b
}

func (h *bounded[T]) Len() int           { return len(h.items) }
func (h *bounded[T]) Less(i, j int) bool { return h.before(h.items[j], h.items[i]) }
func (h *bounded[T]) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *bounded[T]) Push(any)           {}             // heap.Interface; offer appends and fixes instead,
func (h *bounded[T]) Pop() any           { return nil } // and nothing is ever popped

// admits reports whether offer would keep x.
func (h *bounded[T]) admits(x T) bool {
	return h.n <= 0 || len(h.items) < h.n || h.before(x, h.items[0])
}

func (h *bounded[T]) offer(x T) {
	switch {
	case !h.admits(x):
	case h.n <= 0 || len(h.items) < h.n:
		h.items = append(h.items, x)
		if h.n > 0 {
			heap.Fix(h, len(h.items)-1)
		}
	default:
		h.items[0] = x
		heap.Fix(h, 0)
	}
}

// ranked returns the kept items best first; the heap is spent.
func (h *bounded[T]) ranked() []T {
	sort.Slice(h.items, func(i, j int) bool { return h.before(h.items[i], h.items[j]) })
	return h.items
}

// newTop ranks groups for topk: score descending, key ascending on
// ties.
func newTop(by string, k int) *bounded[Group] {
	return &bounded[Group]{n: k, before: func(a, b Group) bool {
		if sa, sb := a.score(by), b.score(by); sa != sb {
			return sa > sb
		}
		return a.Key < b.Key
	}}
}

// topK returns the k highest-scoring groups, ranked.
func topK(gs []Group, by string, k int) []Group {
	if k <= 0 {
		return nil
	}
	h := newTop(by, k)
	for _, g := range gs {
		h.offer(g)
	}
	return h.ranked()
}
