package engine

import (
	"math"

	"ndlog/internal/val"
)

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
	// lane is a 4-ary heap of pending insertions of ordered predicates,
	// best value first; it is popped only when the FIFO is empty. Its
	// entries hold a rank and a slot of side, where the rest of each
	// insertion waits; free heads side's free rows (slot+1, 0 for none).
	// kept and keptRows are the small arrays while a long lane runs in
	// others, laneSeq numbers its pushes since it last ran empty, and
	// keys counts its entries per key hash once it is longer than
	// laneScan.
	lane     []laneEntry
	side     []laneRow
	free     uint32
	kept     []laneEntry
	keptRows []laneRow
	laneSeq  uint32
	keys     map[uint32]int32
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
	// mix, when non-nil, runs before every pop; tests set it to move a
	// random pending delta the queue's rules let go first to the FIFO's
	// head, to check that a fixpoint does not depend on the order.
	mix func()
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

// fifoKeep is the largest FIFO array, in deltas, a node's queue keeps
// when it runs empty during a drain, for the rest of the drain; a
// burst's larger one is left to the collector. Below 128 the update
// workloads' bursts regrow it: at 64 dv100-updates-sim allocates 1.5 %
// more objects, at 32 3.4 %; at 512 sp100-par's peak heap rises 4 %.
// Between drains a node keeps no more than idleKeep (Node.DrainInto),
// so what idle nodes retain stays a few KB each, and a FIFO that
// dropped its array starts again at fifoFirst deltas: regrown from one
// delta, it cost dv100-updates-sim 0.9–1.1 % more allocations than the
// code before idleKeep, and 0.1 % from 16.
const (
	fifoKeep  = 128
	idleKeep  = 64
	fifoFirst = 16
)

// openKeep is the most retractions a queue enters between two empty
// runs and still keeps its fold map for (closeAll).
const openKeep = 16

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
	if q.buf == nil {
		q.buf = make([]Delta, 0, fifoFirst)
	}
	q.buf = append(q.buf, d)
}

// pop removes and returns the oldest delta of the FIFO, or the lane's
// best when the FIFO is empty; the queue must not be empty. The FIFO's
// last pop rewinds it onto the front of its backing array.
func (q *deltaQueue) pop() Delta {
	if q.mix != nil {
		q.mix()
	}
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
		if cap(q.buf) > fifoKeep {
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
	if q.opened > openKeep {
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
// agg is the selection's aggregate predicate, whose group values decide
// which insertions skip the lane (Node.dominated).
type laneOrder struct {
	pred string
	agg  string
	col  int
	desc bool
	key  []int
}

// laneEntry is one insertion waiting in the lane's heap, in 16 bytes and
// no pointer, so that moving one hits no write barrier: its rank
// (laneRank), its push order seq (equal values pop in it; past 2^32
// pushes it wraps, which only reorders ties) and slot, the index of its
// row in the side array, with its order's direction and its rank's tag
// in the top bits.
type laneEntry struct {
	rank uint64
	seq  uint32
	slot uint32
}

// laneRow is the rest of a lane entry, in the side array: its fields and
// lifetime (its predicate is orders[ord]'s) and, while the lane counts
// its keys, the hash of its key. A free row has no fields, and its hash
// links the next free row (its slot+1; 0 ends the list).
type laneRow struct {
	fields []val.Value
	life   float32
	hash   uint32
	ord    uint8
}

// The top bits of laneEntry.slot: laneDesc marks an entry of a
// descending order; laneInt and laneFloat tag a rank that tells values
// apart — two entries of one rank and one tag hold values Compare finds
// equal, so before skips Compare for them (on the sp100 cold starts a
// quarter to half of before's calls meet equal ranks). laneSlot masks the row's index, so a lane holds fewer than
// 2^29 entries.
const (
	laneDesc  = 1 << 31
	laneInt   = 1 << 30
	laneFloat = 1 << 29
	laneTag   = laneInt | laneFloat
	laneSlot  = 1<<29 - 1
)

// laneKeep is the lane array, in entries, a queue keeps once its lane
// runs empty, with as many side rows: 672 bytes, all an idle node holds
// for it. Most drains of the dv20 UDP updates fit it (its longest lane
// held 18 entries), so they allocate nothing for the lane. A longer lane
// moves to arrays of its own, which are left to the collector once the
// lane runs empty, as fifoKeep leaves the FIFO's. Up to laneScan entries
// the per-key rule compares the entries' keys, which hashes nothing; a
// longer lane counts its key hashes in keys, which goes with it.
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
	for _, e := range q.lane {
		r := &q.side[e.slot&laneSlot]
		if int(r.ord) != ord {
			continue
		}
		if key == nil && val.ValuesEqual(r.fields, t.Fields) ||
			key != nil && sameKey(val.Tuple{Pred: t.Pred, Fields: r.fields}, t, key) {
			return true
		}
	}
	return false
}

// laneRank maps v, a value of a lane order's column, to a rank in which
// better values are smaller: ascending, nil and addresses rank lowest,
// then NaN, then the numbers by their float64 value (its bits, sign
// flipped, −0 as +0), then strings, bools and lists — the order Compare
// gives the kinds — and desc inverts it. Values that Compare tells apart
// may share a rank (1 and 1.0, ints beyond 2^53, two strings), never
// swap it. tag is laneInt for an int within ±2^53, laneFloat for a
// float but NaN, 0 otherwise.
func laneRank(v val.Value, desc bool) (rank uint64, tag uint32) {
	switch v.Kind() {
	case val.KindNil, val.KindAddr:
	case val.KindInt, val.KindFloat:
		f := v.Float()
		if f != f {
			rank = 1
			break
		}
		b := math.Float64bits(f)
		switch {
		case b == 1<<63:
			rank = 1 << 63 // −0, which Compare finds equal to +0
		case b>>63 != 0:
			rank = ^b
		default:
			rank = b | 1<<63
		}
		if v.Kind() == val.KindFloat {
			tag = laneFloat
		} else if i := v.Int(); -1<<53 <= i && i <= 1<<53 {
			tag = laneInt
		}
	default:
		rank = math.MaxUint64
	}
	if desc {
		rank = ^rank
	}
	return rank, tag
}

// pushLane adds insertion d of the predicate ordered by orders[ord] to
// the lane; h is its key's hash when the lane counts keys.
func (q *deltaQueue) pushLane(d Delta, ord int, h uint32) {
	switch {
	case q.lane == nil:
		q.lane = make([]laneEntry, 0, laneKeep)
		q.side = make([]laneRow, 0, laneKeep)
	case len(q.lane) == laneKeep && cap(q.lane) == laneKeep:
		// Outgrowing the kept arrays: park them until the lane runs empty.
		// Every row is taken, so the side array is full as well.
		q.kept, q.keptRows = q.lane, q.side
		q.lane = append(make([]laneEntry, 0, 4*laneKeep), q.lane...)
		q.side = append(make([]laneRow, 0, 4*laneKeep), q.side...)
		clear(q.keptRows)
	}
	o := &q.orders[ord]
	var s uint32
	if s = q.free; s != 0 {
		s--
		q.free = q.side[s].hash
	} else {
		s = uint32(len(q.side))
		q.side = append(q.side, laneRow{})
	}
	q.side[s] = laneRow{fields: d.Tuple.Fields, life: d.Life, hash: h, ord: uint8(ord)}
	rank, tag := laneRank(d.Tuple.Fields[o.col], o.desc)
	s |= tag
	if o.desc {
		s |= laneDesc
	}
	e := laneEntry{rank: rank, seq: q.laneSeq, slot: s}
	q.laneSeq++
	q.lane = append(q.lane, e)
	if q.keys != nil {
		q.keys[h]++
	} else if len(q.lane) > laneScan {
		q.keys = make(map[uint32]int32, 2*len(q.lane))
		for _, e := range q.lane {
			r := &q.side[e.slot&laneSlot]
			r.hash = q.laneHash(r.fields, int(r.ord))
			q.keys[r.hash]++
		}
	}
	// Sift up, a 4-ary heap: the entry moves up through a hole.
	i := len(q.lane) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.before(e, q.lane[p]) {
			break
		}
		q.lane[i] = q.lane[p]
		i = p
	}
	q.lane[i] = e
}

// popLane removes and returns the lane's best insertion; the lane must
// not be empty.
func (q *deltaQueue) popLane() Delta {
	top := q.lane[0]
	last := len(q.lane) - 1
	e := q.lane[last]
	q.lane = q.lane[:last]
	if last > 0 {
		// Sift the last entry down from the root through a hole.
		h := q.lane
		i := 0
		for {
			c := 4*i + 1
			if c >= last {
				break
			}
			m := c
			for j := c + 1; j < min(c+4, last); j++ {
				if q.before(h[j], h[m]) {
					m = j
				}
			}
			if !q.before(h[m], e) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = e
	}
	s := top.slot & laneSlot
	r := &q.side[s]
	d := Delta{Sign: +1, Life: r.life, Tuple: val.Tuple{Pred: q.orders[r.ord].pred, Fields: r.fields}}
	if q.keys != nil {
		if q.keys[r.hash]--; q.keys[r.hash] == 0 {
			delete(q.keys, r.hash)
		}
	}
	*r = laneRow{hash: q.free}
	q.free = s + 1
	if last == 0 {
		// Empty: back to the kept arrays, if a long lane left them.
		if q.kept != nil {
			q.lane, q.kept = q.kept[:0], nil
			q.side, q.keptRows = q.keptRows, nil
		}
		q.side = q.side[:0]
		q.free = 0
		q.keys = nil
		q.laneSeq = 0
	}
	return d
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
// earlier push. Entries of an ascending order pop before those of a
// descending one, which keeps the order total. Ranks decide the value
// unless they are equal without a common tag, which leaves it to
// Compare: the order is the one the values' Compare gives.
func (q *deltaQueue) before(a, b laneEntry) bool {
	if (a.slot^b.slot)&laneDesc != 0 {
		return b.slot&laneDesc != 0
	}
	if a.rank != b.rank {
		return a.rank < b.rank
	}
	if t := a.slot & laneTag; t == 0 || t != b.slot&laneTag {
		ra, rb := &q.side[a.slot&laneSlot], &q.side[b.slot&laneSlot]
		c := ra.fields[q.orders[ra.ord].col].Compare(rb.fields[q.orders[rb.ord].col])
		if a.slot&laneDesc != 0 {
			c = -c
		}
		if c != 0 {
			return c < 0
		}
	}
	return a.seq < b.seq
}
