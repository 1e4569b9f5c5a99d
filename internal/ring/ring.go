// Package ring provides the FIFO queue the simulator's hot paths share:
// a ring buffer that doubles when full, so a queue whose length is
// bounded (a prefetch window, the events of one instant, the doorbells
// in flight) stops allocating once it has reached that bound.
package ring

// Queue is a FIFO of T. The zero value is an empty queue.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int
	n    int
}

// Len reports the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends a zero element and returns it for the caller to fill;
// the pointer is good until the next Push.
func (q *Queue[T]) Push() *T {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		k := copy(grown, q.buf[q.head:])
		copy(grown[k:], q.buf[:q.head])
		q.buf, q.head = grown, 0
	}
	slot := &q.buf[(q.head+q.n)&(len(q.buf)-1)]
	q.n++
	return slot
}

// Peek returns the oldest element; the queue must not be empty.
func (q *Queue[T]) Peek() *T { return &q.buf[q.head] }

// Pop removes and returns the oldest element. Its slot is zeroed, so
// the queue does not keep what the element referenced reachable.
func (q *Queue[T]) Pop() T {
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
