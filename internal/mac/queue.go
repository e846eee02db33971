package mac

// defaultQueueCap is the transmit queue bound of every MAC when the
// caller passes 0.
const defaultQueueCap = 64

// txQueue is the bounded FIFO transmit queue every MAC in this package
// shares, with its admission rule. reserve promises a slot before the
// caller builds its frame; outstanding promises count as occupancy, and
// the next admit settles one whether or not it succeeds, so a refused
// enqueue can neither leak a promise nor overfill the queue. The queue
// therefore never holds more than cap entries, which is what the pooled
// send paths size their frame pools by. Storage is a ring of cap slots,
// allocated on first push and reused forever.
type txQueue[T any] struct {
	buf      []T
	head, n  int
	cap      int
	reserved int
}

func newTxQueue[T any](capacity int) txQueue[T] {
	if capacity == 0 {
		capacity = defaultQueueCap
	}
	return txQueue[T]{cap: capacity}
}

func (q *txQueue[T]) len() int { return q.n }

// reserve promises a slot, or reports false when queued entries plus
// outstanding promises already fill the queue.
func (q *txQueue[T]) reserve() bool {
	if q.n+q.reserved >= q.cap {
		return false
	}
	q.reserved++
	return true
}

// release returns an unused promise.
func (q *txQueue[T]) release() {
	if q.reserved > 0 {
		q.reserved--
	}
}

// admit decides an enqueue: settling an outstanding promise always admits
// (it keeps queued+promised constant); otherwise the queue must have room.
// An admitted entry must be pushed before the next admit.
func (q *txQueue[T]) admit() bool {
	if q.reserved > 0 {
		q.reserved--
		return true
	}
	return q.n < q.cap
}

func (q *txQueue[T]) push(v T) {
	if q.buf == nil {
		q.buf = make([]T, q.cap)
	}
	q.buf[(q.head+q.n)%q.cap] = v
	q.n++
}

// pop removes and returns the oldest entry; the queue must not be empty.
func (q *txQueue[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the ring's reference
	q.head = (q.head + 1) % q.cap
	q.n--
	return v
}
