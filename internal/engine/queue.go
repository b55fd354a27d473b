package engine

// deltaQueue is a node's FIFO of pending deltas: a slice consumed by
// head index, so a pop neither allocates nor gives up capacity. What it
// retains is bounded by pending — not processed — work: the processed
// prefix is zeroed as it is consumed and reclaimed before the slice
// would grow, and a backing array left behind by a burst is dropped once
// the queue runs empty.
type deltaQueue struct {
	buf  []Delta
	head int
}

// keepCap is the largest buffer, in deltas, that the per-drain path holds
// on to for its next use — a node's empty queue, a recycled Drain result,
// the cluster's decode batch. Anything a burst grew past it is left to
// the collector, so what idle nodes retain stays a few KB each. Measured
// on the benchmark: at 16 sp100-sim allocates 3.5 % more objects, at 512
// sp100-par's peak heap rises 4 %; in between nothing moves.
const keepCap = 128

func (q *deltaQueue) len() int { return len(q.buf) - q.head }

func (q *deltaQueue) push(d Delta) {
	if q.head > 0 && len(q.buf) == cap(q.buf) {
		if q.head >= len(q.buf)/2 {
			// At least half the array is processed prefix: slide the
			// pending tail down instead of growing (amortised O(1)).
			k := copy(q.buf, q.buf[q.head:])
			clear(q.buf[k:])
			q.buf = q.buf[:k]
		} else {
			// Mostly pending: let append size the new array by the pending
			// deltas alone.
			q.buf = q.buf[q.head:]
		}
		q.head = 0
	}
	q.buf = append(q.buf, d)
}

// pop removes and returns the oldest delta; the queue must not be empty.
// The last pop rewinds the queue onto the front of its backing array.
func (q *deltaQueue) pop() Delta {
	d := q.buf[q.head]
	q.buf[q.head] = Delta{}
	q.head++
	if q.head == len(q.buf) {
		q.head = 0
		if cap(q.buf) > keepCap {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
	}
	return d
}
