package queue

// TryGet removes and returns the oldest element without blocking. The
// boolean reports whether an element was available.
func (q *Queue[T]) TryGet() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var zero T
	if q.count == 0 {
		return zero, false
	}
	e := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	q.notFull.Signal()
	return e, true
}

// Cap reports the queue capacity.
func (q *Queue[T]) Cap() int { return q.capacity }
