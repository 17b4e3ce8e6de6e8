package transport

// FIFO is an unbounded first-in-first-out queue that keeps its array: Pop
// advances a head index and zeroes the slot it leaves, so the queue pins
// nothing it handed out, and the slice resets to its start whenever the
// queue drains. A queue that is pushed and drained in lockstep therefore
// allocates nothing once its array has grown. A push into a full array
// whose popped prefix is at least half of it slides the waiting tail down
// instead of growing the array.
//
// The zero value is an empty queue. A FIFO is not safe for concurrent use:
// its owner guards it (the Inproc mailbox, the query scheduler and a
// result stream hold their locks).
type FIFO[T any] struct {
	buf  []T
	head int
}

// Len returns the number of queued values.
func (q *FIFO[T]) Len() int { return len(q.buf) - q.head }

// Push appends v at the tail.
func (q *FIFO[T]) Push(v T) {
	if q.head > 0 && len(q.buf) == cap(q.buf) && 2*q.head >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		clear(q.buf[n:])
		q.buf, q.head = q.buf[:n], 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the value at the head. The queue must not be
// empty.
func (q *FIFO[T]) Pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head++
	if q.head == len(q.buf) {
		q.buf, q.head = q.buf[:0], 0
	}
	return v
}
