package engine

import "ndlog/internal/val"

// deltaQueue is a node's FIFO of pending deltas: a slice consumed by
// head index, so a pop neither allocates nor gives up capacity. What it
// retains is bounded by pending — not processed — work: the processed
// prefix is zeroed as it is consumed and reclaimed before the slice
// would grow, and a backing array left behind by a burst is dropped once
// the queue runs empty.
type deltaQueue struct {
	buf  []Delta
	head int
	// popped counts the pops so far: the pending delta at buf[head+i] is
	// the (popped+i)-th ever pushed, its sequence number.
	popped uint64
	// open maps the hash of a (predicate, primary key) to the sequence
	// number of a pending retraction no later delta for that key has
	// followed yet (pushFold); opens[oh:] lists those retractions in push
	// order, so that pop can close the ones it takes off the queue.
	open  map[uint64]uint64
	opens []openRet
	oh    int
	// preds counts the open retractions of each predicate that has one —
	// a handful at most — so that an insertion of any other predicate is
	// pushed straight through, with no hash and no lookup.
	preds []openPred
	// opened counts the retractions entered since the queue last ran
	// empty, which bounds the map's size.
	opened int
	// post, when non-nil, maps every hash before lookup; tests inject a
	// truncating map to force distinct keys to collide (as table.Table).
	post func(uint64) uint64
}

// openRet is one retraction entered in deltaQueue.open.
type openRet struct {
	seq, hash uint64
}

// openPred is one predicate's count of open retractions.
type openPred struct {
	pred string
	n    int
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
	q.popped++
	if q.oh < len(q.opens) {
		q.close(d)
	}
	if q.head == len(q.buf) {
		q.head = 0
		if cap(q.buf) > keepCap {
			q.buf = nil
		} else {
			q.buf = q.buf[:0]
		}
		q.closeAll()
	}
	return d
}

// close closes the open retraction d, just popped, unless a later delta
// for its key did. Entries open in push order, so only the first can be
// d.
func (q *deltaQueue) close(d Delta) {
	if o := q.opens[q.oh]; o.seq < q.popped {
		if q.oh++; q.oh == len(q.opens) {
			q.opens, q.oh = q.opens[:0], 0
		}
		if q.open[o.hash] == o.seq {
			delete(q.open, o.hash)
			q.count(d.Tuple.Pred, -1)
		}
	}
}

// folds reports whether a retraction of pred is open: only then can an
// insertion of pred fold, so every other insertion (almost all of a cold
// start) is pushed straight through.
func (q *deltaQueue) folds(pred string) bool {
	for i := range q.preds {
		if q.preds[i].pred == pred {
			return true
		}
	}
	return false
}

// count adds by to pred's count of open retractions, dropping a
// predicate whose count reaches zero.
func (q *deltaQueue) count(pred string, by int) {
	for i := range q.preds {
		if p := &q.preds[i]; p.pred == pred {
			if p.n += by; p.n == 0 {
				last := len(q.preds) - 1
				q.preds[i] = q.preds[last]
				q.preds[last] = openPred{}
				q.preds = q.preds[:last]
			}
			return
		}
	}
	q.preds = append(q.preds, openPred{pred: pred, n: by})
}

// pushFold pushes d, a delta of a predicate whose rows are replaced by
// the primary key cols, folding a retraction −a and the next delta for
// its key, when that is an insertion +b with b ≠ a, into +b alone, in
// −a's place. That leaves the row exactly as −a, +b would, whatever it
// held (DESIGN.md §15, "In the queue"). It reports whether d was folded.
// Two keys that collide on the hash fold nothing.
func (q *deltaQueue) pushFold(d Delta, cols []int) bool {
	h := val.Hash64(d.Tuple.HashOn(cols)).AddString(d.Tuple.Pred).Sum()
	if q.post != nil {
		h = q.post(h)
	}
	if q.open == nil {
		q.open = map[uint64]uint64{}
	}
	if seq, ok := q.open[h]; ok && seq >= q.popped {
		delete(q.open, h)
		a := &q.buf[q.head+int(seq-q.popped)]
		q.count(a.Tuple.Pred, -1)
		if d.Sign > 0 && sameKey(a.Tuple, d.Tuple, cols) && !a.Tuple.Equal(d.Tuple) {
			*a = d
			return true
		}
	}
	if d.Sign < 0 {
		seq := q.popped + uint64(q.len())
		q.open[h] = seq
		if q.oh > 0 && len(q.opens) == cap(q.opens) {
			// Slide the open tail down rather than grow (as push does).
			q.opens = q.opens[:copy(q.opens, q.opens[q.oh:])]
			q.oh = 0
		}
		q.opens = append(q.opens, openRet{seq: seq, hash: h})
		q.count(d.Tuple.Pred, +1)
		q.opened++
	}
	q.push(d)
	return false
}

// closeAll forgets every open retraction once the queue is empty. A map
// that grew past a small drain's size is left to the collector, so an
// idle node retains a few hundred bytes at most.
func (q *deltaQueue) closeAll() {
	if q.opened == 0 {
		return
	}
	if q.opened > keepCap/8 {
		q.open, q.opens = nil, nil
		q.oh = 0
	} else {
		clear(q.open)
		q.opens, q.oh = q.opens[:0], 0
	}
	clear(q.preds)
	q.preds = q.preds[:0]
	q.opened = 0
}

// sameKey reports whether a and b are tuples of one predicate that agree
// on the key columns cols.
func sameKey(a, b val.Tuple, cols []int) bool {
	if a.Pred != b.Pred || len(a.Fields) != len(b.Fields) {
		return false
	}
	for _, c := range cols {
		if c >= len(a.Fields) || !a.Fields[c].Equal(b.Fields[c]) {
			return false
		}
	}
	return true
}
