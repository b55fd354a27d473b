package table

import (
	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// GroupAgg maintains incremental aggregates (min, max, count, sum) per
// group, supporting both insertions and deletions as required for
// materialized-view maintenance under the bursty update model (paper
// Section 4, citing Ramakrishnan et al. [27]).
//
// Groups are keyed by the hash of their key values (val.HashValues),
// with collisions chained through the groups themselves and resolved by
// structural equality — no value is formatted into a string on this
// path. Groups live in a slab addressed by uint32 slots, like a Table's
// rows (DESIGN.md §12), and their keys are carved from shared chunks.
// Each group keeps the multiset of its contributing values as a chain of
// (value, multiplicity) pairs, searched linearly: the first inline in
// the group, the rest in the aggregate's value slab. The distinct values
// of one group are few (the costs of the alternative paths to one
// destination), so a walk of 32-byte pairs beats hashing the value, and
// an Add allocates only when a slab or key chunk fills. A deletion of
// the current min/max rescans the group (the O(n)-space /
// cheap-recompute strategy the paper cites).
type GroupAgg struct {
	fn     ast.AggFunc
	groups map[uint64]uint32 // key hash -> chain head slot (aggGroup.next); nil until the first Add
	slab   slab[aggGroup]    // slab.free heads the free group slots (aggGroup.next)
	vals   slab[aggVal]
	vfree  *aggVal // the free values, chained through aggVal.next
	// keys is the chunk group keys are carved from: len values carved,
	// cap its size. A full chunk is dropped, not grown: the keys carved
	// from it keep it.
	keys []val.Value
	n    int32 // live (non-empty) group count
	// empties counts retained empty groups: a group whose last value is
	// removed keeps its shell so churny workloads (delete + re-derive
	// cycles) don't store its key again every round. A sweep reclaims
	// them if they ever dominate.
	empties int32
	// post is the test hook that truncates group-key hashes to force
	// collision chains; nil in production.
	post func(uint64) uint64
}

// maxKeyChunk caps a key chunk at 12 KiB of three-word values.
const maxKeyChunk = 512

type aggGroup struct {
	// key holds the group's canonical key values, for collision
	// resolution within a hash chain.
	key []val.Value
	cur val.Value // current aggregate output
	// first heads the multiset of contributing values: distinct values in
	// first-contribution order, swap-removed when their count reaches 0.
	// first.count is 0 when the group has none.
	first  aggVal
	n      int     // total multiplicity (for count)
	sum    float64 // running sum (for sum)
	sumInt int64
	// next is the slot of the next group on the hash chain, or, on a
	// free slot, the next free slot.
	next   uint32
	allInt bool
	valid  bool
}

// aggVal is one distinct value of a group and its multiplicity; next
// is the group's next value (or, on a free value, the next free one).
// Values live in the aggregate's value slab, whose chunks never move, so
// the chain is walked by pointer.
type aggVal struct {
	v     val.Value
	count int
	next  *aggVal
}

// NewGroupAgg creates an incremental aggregate for fn. Nothing is
// allocated until the first Add.
func NewGroupAgg(fn ast.AggFunc) *GroupAgg {
	return &GroupAgg{fn: fn, slab: slab[aggGroup]{free: noSlot}}
}

// Change describes how a group's aggregate moved after an Add or Remove.
type Change struct {
	// HadOld is true if the group had an aggregate value before.
	HadOld bool
	Old    val.Value
	// HasNew is true if the group still has an aggregate value after.
	HasNew bool
	New    val.Value
}

// Changed reports whether the visible aggregate value changed.
func (c Change) Changed() bool {
	if c.HadOld != c.HasNew {
		return true
	}
	if !c.HadOld {
		return false
	}
	return !c.Old.Equal(c.New)
}

func (g *GroupAgg) keyHash(key []val.Value) uint64 {
	h := val.HashValues(key)
	if g.post != nil {
		h = g.post(h)
	}
	return h
}

func (g *GroupAgg) lookup(h uint64, key []val.Value) *aggGroup {
	s, ok := g.groups[h]
	for ok && s != noSlot {
		gr := g.slab.at(s)
		if val.ValuesEqual(gr.key, key) {
			return gr
		}
		s = gr.next
	}
	return nil
}

func (g *GroupAgg) group(h uint64, key []val.Value) *aggGroup {
	if gr := g.lookup(h, key); gr != nil {
		if gr.n == 0 {
			g.empties--
			g.n++
		}
		return gr
	}
	var k []val.Value // the key storage a freed slot left, if it fits
	s := g.slab.free
	if s != noSlot {
		gr := g.slab.at(s)
		g.slab.free = gr.next
		if cap(gr.key) >= len(key) {
			k = append(gr.key[:0], key...)
		}
	} else {
		s = g.slab.grow()
	}
	if k == nil {
		k = g.carve(key)
	}
	if g.groups == nil {
		g.groups = map[uint64]uint32{}
	}
	head, ok := g.groups[h]
	if !ok {
		head = noSlot
	}
	gr := g.slab.at(s)
	*gr = aggGroup{key: k, next: head, allInt: true}
	g.groups[h] = s
	g.n++
	return gr
}

// carve copies key into the current key chunk, starting a chunk twice
// the last one's size (up to maxKeyChunk values) when it does not fit.
func (g *GroupAgg) carve(key []val.Value) []val.Value {
	n := len(key)
	if cap(g.keys)-len(g.keys) < n {
		g.keys = make([]val.Value, 0, max(min(2*cap(g.keys), maxKeyChunk), 2*n))
	}
	i := len(g.keys)
	g.keys = append(g.keys, key...)
	return g.keys[i : i+n : i+n]
}

// drop empties a group but keeps its shell for reuse; a sweep reclaims
// shells when they outnumber the live groups.
func (g *GroupAgg) drop(gr *aggGroup) {
	gr.valid = false
	gr.sum, gr.sumInt, gr.allInt = 0, 0, true
	gr.cur = val.Nil
	g.n--
	g.empties++
	if g.empties > 64 && g.empties > g.n {
		g.sweep()
	}
}

// sweep frees every retained empty group shell; once no group is live
// it gives all storage back.
func (g *GroupAgg) sweep() {
	g.empties = 0
	if g.n == 0 {
		*g = GroupAgg{fn: g.fn, slab: slab[aggGroup]{free: noSlot}, post: g.post}
		return
	}
	for h, head := range g.groups {
		live := noSlot
		for s := head; s != noSlot; {
			gr := g.slab.at(s)
			next := gr.next
			if gr.n > 0 {
				gr.next = live
				live = s
			} else {
				// The slot keeps its key's storage for the next group: the
				// keys of one aggregate all have one length.
				clear(gr.key)
				*gr = aggGroup{key: gr.key[:0], next: g.slab.free}
				g.slab.free = s
			}
			s = next
		}
		if live == noSlot {
			delete(g.groups, h)
		} else {
			g.groups[h] = live
		}
	}
}

// newValue returns a zeroed value node: a freed one, else a fresh slot.
func (g *GroupAgg) newValue() *aggVal {
	if p := g.vfree; p != nil {
		g.vfree = p.next
		p.next = nil
		return p
	}
	return g.vals.at(g.vals.grow())
}

// Add inserts one occurrence of v into the group keyed by key. The key
// slice is copied on first use, so callers may reuse scratch storage.
func (g *GroupAgg) Add(key []val.Value, v val.Value) Change {
	gr := g.group(g.keyHash(key), key)
	ch := Change{HadOld: gr.valid, Old: gr.cur}
	if gr.first.count == 0 {
		gr.first = aggVal{v: v, count: 1}
	} else {
		for p := &gr.first; ; p = p.next {
			if p.v.Equal(v) {
				p.count++
				break
			}
			if p.next == nil {
				n := g.newValue()
				n.v, n.count = v, 1
				p.next = n
				break
			}
		}
	}
	gr.n++
	if v.Kind() == val.KindInt {
		gr.sumInt += v.Int()
	} else {
		gr.allInt = false
	}
	if v.IsNumeric() {
		gr.sum += v.Float()
	}
	g.recomputeCheap(gr, v)
	ch.HasNew, ch.New = gr.valid, gr.cur
	return ch
}

// take removes distinct value p of gr, whose predecessor is prev (nil
// for the group's first), the way a swap-remove of a slice does: the
// group's last value takes p's place.
func (g *GroupAgg) take(gr *aggGroup, p, prev *aggVal) {
	if p.next == nil { // p is the last value
		if prev == nil {
			gr.first = aggVal{}
			return
		}
		prev.next = nil
		g.freeValue(p)
		return
	}
	beforeLast, last := p, p.next
	for last.next != nil {
		beforeLast, last = last, last.next
	}
	p.v, p.count = last.v, last.count
	beforeLast.next = nil
	g.freeValue(last)
}

// freeValue puts value node p on the free list, dropping what it held.
func (g *GroupAgg) freeValue(p *aggVal) {
	*p = aggVal{next: g.vfree}
	g.vfree = p
}

// Remove deletes one occurrence of v from the group. Removing a value
// that is not present is a no-op reporting no change.
func (g *GroupAgg) Remove(key []val.Value, v val.Value) Change {
	gr := g.lookup(g.keyHash(key), key)
	if gr == nil {
		return Change{}
	}
	var p, prev *aggVal // prev is the value before p, nil when p is first
	if gr.first.count > 0 {
		for q, before := &gr.first, (*aggVal)(nil); q != nil; before, q = q, q.next {
			if q.v.Equal(v) {
				p, prev = q, before
				break
			}
		}
	}
	if p == nil {
		return Change{HadOld: gr.valid, Old: gr.cur, HasNew: gr.valid, New: gr.cur}
	}
	ch := Change{HadOld: gr.valid, Old: gr.cur}
	p.count--
	gone := p.count == 0
	if gone {
		g.take(gr, p, prev)
	}
	gr.n--
	if v.Kind() == val.KindInt {
		gr.sumInt -= v.Int()
	}
	if v.IsNumeric() {
		gr.sum -= v.Float()
	}
	if gr.n == 0 {
		g.drop(gr)
		return Change{HadOld: ch.HadOld, Old: ch.Old}
	}
	g.recompute(gr, gone && v.Equal(gr.cur))
	ch.HasNew, ch.New = gr.valid, gr.cur
	return ch
}

// Current returns the group's aggregate value, if it has one.
func (g *GroupAgg) Current(key []val.Value) (val.Value, bool) {
	gr := g.lookup(g.keyHash(key), key)
	if gr == nil || !gr.valid {
		return val.Nil, false
	}
	return gr.cur, true
}

// Groups returns the number of live groups.
func (g *GroupAgg) Groups() int { return int(g.n) }

// recomputeCheap updates the aggregate after inserting v without a full
// scan: min/max only move toward v, count/sum are running totals.
func (g *GroupAgg) recomputeCheap(gr *aggGroup, v val.Value) {
	switch g.fn {
	case ast.AggMin:
		if !gr.valid || v.Compare(gr.cur) < 0 {
			gr.cur = v
		}
	case ast.AggMax:
		if !gr.valid || v.Compare(gr.cur) > 0 {
			gr.cur = v
		}
	case ast.AggCount:
		gr.cur = val.NewInt(int64(gr.n))
	case ast.AggSum:
		gr.cur = gr.sumValue()
	}
	gr.valid = true
}

// recompute rebuilds the aggregate after a deletion from a group that
// still has values. Count and sum stay incremental; min/max rescan the
// group's multiset only when the last occurrence of the current extreme
// was the value removed (lostCur).
func (g *GroupAgg) recompute(gr *aggGroup, lostCur bool) {
	switch g.fn {
	case ast.AggCount:
		gr.cur = val.NewInt(int64(gr.n))
	case ast.AggSum:
		gr.cur = gr.sumValue()
	default:
		if !lostCur {
			return
		}
		gr.cur = gr.first.v
		for av := gr.first.next; av != nil; av = av.next {
			c := av.v.Compare(gr.cur)
			if (g.fn == ast.AggMin && c < 0) || (g.fn == ast.AggMax && c > 0) {
				gr.cur = av.v
			}
		}
	}
}

func (gr *aggGroup) sumValue() val.Value {
	if gr.allInt {
		return val.NewInt(gr.sumInt)
	}
	return val.NewFloat(gr.sum)
}
