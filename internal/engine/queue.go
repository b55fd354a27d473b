package engine

import "ndlog/internal/val"

// deltaQueue is a node's queue of pending deltas: a FIFO and, under PSN
// with aggregate selections, a best-first lane beside it (DESIGN.md §15,
// "In the queue: best value first"). The FIFO is a slice consumed by head index, so a pop
// neither allocates nor gives up capacity. What it retains is bounded by
// pending — not processed — work: the processed prefix is zeroed as it
// is consumed and reclaimed before the slice would grow, and a backing
// array left behind by a burst is dropped once the queue runs empty.
type deltaQueue struct {
	buf  []Delta
	head int
	// orders lists the predicates whose insertions wait in the lane (nil
	// under SN or without aggregate selections: every delta takes the
	// FIFO). It is the program's, shared by its nodes.
	orders []laneOrder
	// lane is a binary heap of pending insertions of ordered predicates,
	// best value first; it is popped only when the FIFO is empty. kept is
	// its small array while a long lane runs in another, laneSeq numbers
	// its pushes since it last ran empty, and keys counts its entries per
	// key hash once it is longer than laneScan.
	lane    []laneEntry
	kept    []laneEntry
	laneSeq uint32
	keys    map[uint32]int32
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

func (q *deltaQueue) len() int { return len(q.buf) - q.head + len(q.lane) }

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

// pop removes and returns the oldest delta of the FIFO, or the lane's
// best when the FIFO is empty; the queue must not be empty. The FIFO's
// last pop rewinds it onto the front of its backing array.
func (q *deltaQueue) pop() Delta {
	if q.head == len(q.buf) {
		return q.popLane()
	}
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
		seq := q.popped + uint64(len(q.buf)-q.head)
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

// laneOrder is how the lane ranks one predicate's insertions: by the
// value column of the prunable aggregate selection that reads it, best
// first — ascending for min, descending for max — in the aggregate's own
// order (val.Value.Compare). key names a row for the per-key rule: the
// table's primary key — declared or inferred, whatever the row's
// lifetime, since the table replaces rows by it — nil for the whole row.
type laneOrder struct {
	pred string
	col  int
	desc bool
	key  []int
}

// laneEntry is one insertion waiting in the lane, in 40 bytes: its
// fields and lifetime (its predicate is orders[ord]'s), its push order
// seq (equal values pop in it; past 2^32 pushes it wraps, which only
// reorders ties) and, while the lane counts its keys, the hash of its
// key.
type laneEntry struct {
	fields []val.Value
	life   float32
	seq    uint32
	hash   uint32
	ord    uint8
}

// laneKeep is the lane array, in entries, a queue keeps once its lane
// runs empty: 480 bytes, all an idle node holds for it. Most drains of
// the dv20 UDP updates fit it (its longest lane held 18 entries), so they
// allocate nothing for the lane. A longer lane moves to an array of its
// own, which is left to the collector once the lane runs empty, as
// keepCap leaves the FIFO's. Up to laneScan entries the per-key rule
// compares the entries' keys, which hashes nothing; a longer lane counts
// its key hashes in keys, which goes with it.
const (
	laneKeep = 12
	laneScan = 32
)

// orderOf returns the index of pred's lane order, or -1 when its deltas
// take the FIFO alone. There is one ordered predicate per prunable
// selection — a handful at most — so a scan beats a map.
func (q *deltaQueue) orderOf(pred string) int {
	for i := range q.orders {
		if q.orders[i].pred == pred {
			return i
		}
	}
	return -1
}

// laneHash hashes the key of fields, a row of orders[ord]'s predicate.
// The order's index stands in for the predicate name, which would cost a
// string hash.
func (q *deltaQueue) laneHash(fields []val.Value, ord int) uint32 {
	var h uint64
	if key := q.orders[ord].key; key != nil {
		h = val.Tuple{Fields: fields}.HashOn(key)
	} else {
		h = val.HashValues(fields)
	}
	h ^= uint64(ord) * 0x9e3779b97f4a7c15
	if q.post != nil {
		h = q.post(h)
	}
	return uint32(h ^ h>>32)
}

// inLane reports whether the lane may hold a row with t's key, t being
// a row of orders[ord]'s predicate. Up to laneScan entries it compares
// keys; a longer lane looks up h, the key's hash, and two keys that
// collide only cost a spurious flush.
func (q *deltaQueue) inLane(t val.Tuple, ord int, h uint32) bool {
	if q.keys != nil {
		return q.keys[h] > 0
	}
	key := q.orders[ord].key
	for i := range q.lane {
		e := &q.lane[i]
		if int(e.ord) != ord {
			continue
		}
		if key == nil && val.ValuesEqual(e.fields, t.Fields) ||
			key != nil && sameKey(val.Tuple{Pred: t.Pred, Fields: e.fields}, t, key) {
			return true
		}
	}
	return false
}

// pushLane adds insertion d of the predicate ordered by orders[ord] to
// the lane; h is its key's hash when the lane counts keys.
func (q *deltaQueue) pushLane(d Delta, ord int, h uint32) {
	switch {
	case q.lane == nil:
		q.lane = make([]laneEntry, 0, laneKeep)
	case len(q.lane) == laneKeep && cap(q.lane) == laneKeep:
		// Outgrowing the kept array: park it until the lane runs empty.
		q.kept = q.lane
		q.lane = append(make([]laneEntry, 0, 4*laneKeep), q.lane...)
		clear(q.kept)
	}
	q.lane = append(q.lane, laneEntry{fields: d.Tuple.Fields, life: d.Life, seq: q.laneSeq, hash: h, ord: uint8(ord)})
	q.laneSeq++
	if q.keys != nil {
		q.keys[h]++
	} else if len(q.lane) > laneScan {
		q.keys = make(map[uint32]int32, 2*len(q.lane))
		for i := range q.lane {
			e := &q.lane[i]
			e.hash = q.laneHash(e.fields, int(e.ord))
			q.keys[e.hash]++
		}
	}
	// Sift up.
	for i := len(q.lane) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.before(&q.lane[i], &q.lane[p]) {
			break
		}
		q.lane[i], q.lane[p] = q.lane[p], q.lane[i]
		i = p
	}
}

// popLane removes and returns the lane's best insertion; the lane must
// not be empty.
func (q *deltaQueue) popLane() Delta {
	top := q.lane[0]
	last := len(q.lane) - 1
	q.lane[0] = q.lane[last]
	q.lane[last] = laneEntry{}
	q.lane = q.lane[:last]
	// Sift down.
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && q.before(&q.lane[c+1], &q.lane[c]) {
			c++
		}
		if !q.before(&q.lane[c], &q.lane[i]) {
			break
		}
		q.lane[i], q.lane[c] = q.lane[c], q.lane[i]
		i = c
	}
	if q.keys != nil {
		if q.keys[top.hash]--; q.keys[top.hash] == 0 {
			delete(q.keys, top.hash)
		}
	}
	if last == 0 {
		// Empty: back to the kept array, if a long lane left it.
		if q.kept != nil {
			q.lane, q.kept = q.kept[:0], nil
		}
		q.keys = nil
		q.laneSeq = 0
	}
	return Delta{Sign: +1, Life: top.life, Tuple: val.Tuple{Pred: q.orders[top.ord].pred, Fields: top.fields}}
}

// flushLane moves the whole lane to the FIFO's tail, best first, so that
// a delta queued after it keeps its key's push order.
func (q *deltaQueue) flushLane() {
	q.keys = nil
	for len(q.lane) > 0 {
		q.push(q.popLane())
	}
}

// before reports whether a pops before b: the better value, then the
// earlier push. Entries of predicates ordered in opposite directions
// rank ascending ones first, which keeps the order total.
func (q *deltaQueue) before(a, b *laneEntry) bool {
	oa, ob := &q.orders[a.ord], &q.orders[b.ord]
	if oa.desc != ob.desc {
		return ob.desc
	}
	c := a.fields[oa.col].Compare(b.fields[ob.col])
	if c == 0 {
		return a.seq < b.seq
	}
	return (c < 0) != oa.desc
}
