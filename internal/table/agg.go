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
// path. Each group keeps the multiset of its contributing values as a
// flat slice of (value, multiplicity) pairs, searched linearly: the
// distinct values of one group are few (the costs of the alternative
// paths to one destination), so a scan of adjacent 32-byte pairs beats
// hashing the value, and an Add allocates only when the slice grows. A
// deletion of the current min/max rescans the group (the O(n)-space /
// cheap-recompute strategy the paper cites).
type GroupAgg struct {
	fn     ast.AggFunc
	groups map[uint64]*aggGroup // key hash -> collision chain (aggGroup.next)
	n      int                  // live (non-empty) group count
	// empties counts retained empty groups: a group whose last value is
	// removed keeps its shell so churny workloads (delete + re-derive
	// cycles) don't reallocate the key copy and multiset every round.
	// A sweep reclaims them if they ever dominate.
	empties int
	// post is the test hook that truncates group-key hashes to force
	// collision chains; nil in production.
	post func(uint64) uint64
}

type aggGroup struct {
	// key holds the group's canonical key values, for collision
	// resolution within a hash chain.
	key  []val.Value
	next *aggGroup
	// values is the multiset of contributing values: distinct values in
	// first-contribution order, swap-removed when their count reaches 0.
	values []aggVal
	n      int     // total multiplicity (for count)
	sum    float64 // running sum (for sum)
	sumInt int64
	allInt bool
	cur    val.Value // current aggregate output
	valid  bool
}

type aggVal struct {
	v     val.Value
	count int
}

// NewGroupAgg creates an incremental aggregate for fn.
func NewGroupAgg(fn ast.AggFunc) *GroupAgg {
	return &GroupAgg{fn: fn, groups: map[uint64]*aggGroup{}}
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
	for gr := g.groups[h]; gr != nil; gr = gr.next {
		if val.ValuesEqual(gr.key, key) {
			return gr
		}
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
	gr := &aggGroup{key: append([]val.Value(nil), key...), next: g.groups[h], allInt: true}
	g.groups[h] = gr
	g.n++
	return gr
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

// sweep discards all retained empty group shells.
func (g *GroupAgg) sweep() {
	for h, head := range g.groups {
		var live *aggGroup
		for gr := head; gr != nil; {
			next := gr.next
			if gr.n > 0 {
				gr.next = live
				live = gr
			}
			gr = next
		}
		if live == nil {
			delete(g.groups, h)
		} else {
			g.groups[h] = live
		}
	}
	g.empties = 0
}

// find returns the position of v in the group's multiset, or -1.
func (gr *aggGroup) find(v val.Value) int {
	for i := range gr.values {
		if gr.values[i].v.Equal(v) {
			return i
		}
	}
	return -1
}

// Add inserts one occurrence of v into the group keyed by key. The key
// slice is copied on first use, so callers may reuse scratch storage.
func (g *GroupAgg) Add(key []val.Value, v val.Value) Change {
	gr := g.group(g.keyHash(key), key)
	ch := Change{HadOld: gr.valid, Old: gr.cur}
	if i := gr.find(v); i >= 0 {
		gr.values[i].count++
	} else {
		gr.values = append(gr.values, aggVal{v: v, count: 1})
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

// Remove deletes one occurrence of v from the group. Removing a value
// that is not present is a no-op reporting no change.
func (g *GroupAgg) Remove(key []val.Value, v val.Value) Change {
	gr := g.lookup(g.keyHash(key), key)
	if gr == nil {
		return Change{}
	}
	i := gr.find(v)
	if i < 0 {
		return Change{HadOld: gr.valid, Old: gr.cur, HasNew: gr.valid, New: gr.cur}
	}
	ch := Change{HadOld: gr.valid, Old: gr.cur}
	gr.values[i].count--
	gone := gr.values[i].count == 0
	if gone {
		last := len(gr.values) - 1
		gr.values[i] = gr.values[last]
		gr.values[last] = aggVal{}
		gr.values = gr.values[:last]
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
func (g *GroupAgg) Groups() int { return g.n }

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
		gr.cur = gr.values[0].v
		for _, av := range gr.values[1:] {
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
