package workload

// fifo is a first-in first-out queue on a ring buffer. Unlike popping a
// slice from the front and appending at the back, which reallocates as
// the window slides, a fifo reuses its storage: steady-state push and pop
// allocate nothing.
type fifo[T any] struct {
	buf     []T
	head, n int
}

// Len returns the number of queued items.
func (q *fifo[T]) Len() int { return q.n }

// at returns the i-th oldest item.
func (q *fifo[T]) at(i int) T { return q.buf[(q.head+i)%len(q.buf)] }

// push appends x at the back.
func (q *fifo[T]) push(x T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*q.n))
		for i := range q.n {
			buf[i] = q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)%len(q.buf)] = x
	q.n++
}

// pop removes and returns the oldest item; the queue must not be empty.
func (q *fifo[T]) pop() T {
	x := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return x
}
