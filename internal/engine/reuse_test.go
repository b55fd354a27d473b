package engine

import (
	"testing"

	"ndlog/internal/val"
)

// TestReusedSlotDoesNotInheritAdv: a table reuses a deleted row's slot
// for the next row it stores (DESIGN.md §12). One SN round can store t,
// delete it and store it again — the second store refilling the first
// one's slot — before the round runs either store's afterStore. The
// first afterStore's advertisement must not land on the second row: that
// row's trigger strands have not run, and its own afterStore, which adds
// an equal value to a group that already holds it, does not run them. A
// row left marked would keep the aggregate-selection fallback
// (readvertiseBest) from ever running them, so the test runs the
// fallback and counts what the row's strands derive. The sequence is
// driven by hand so that it runs the same under PSN, whose rounds hold
// one delta.
func TestReusedSlotDoesNotInheritAdv(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,4)).
materialize(spCost, infinity, infinity, keys(1,2)).
sp1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_concatPath(S, [D]).
sp2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@_Z2,P2,C2),
	f_member(P2, S) == false, C := C1 + C2, P := f_concatPath(S, P2).
sp3 spCost(@S,@D,min<C>) :- path(@S,@D,@_Z,_P,C).
link(a, b, 1). link(b, a, 1).
`
	a, c := val.NewAddr("a"), val.NewAddr("c")
	// A path to a destination no link reaches: sp2 extends it over
	// link(b, a) and nothing else derives into its group.
	tp := val.NewTuple("path", a, c, c, val.NewList(a, c), val.NewInt(7))
	for _, mode := range []Mode{PSN, SN} {
		sp2 := 0
		cen := central(t, src, Options{Mode: mode, AggSel: true, OnDerive: func(_, rule string, d Delta) {
			if rule == "sp2b" && d.Sign > 0 { // sp2 at the path's end
				sp2++
			}
		}})
		cen.Fixpoint()
		n := cen.Node()

		n.stamp++
		first, ok := n.storeInsert(Insert(tp), n.stamp)
		if !ok {
			t.Fatalf("%v: first store of %v refused", mode, tp)
		}
		n.processDelete(tp)
		second, ok := n.storeInsert(Insert(tp), n.stamp)
		if !ok {
			t.Fatalf("%v: second store of %v refused", mode, tp)
		}
		if first.row.Entry() != nil {
			t.Errorf("%v: the deleted row's handle still resolves", mode)
		}
		n.afterStore(first, int64(n.stamp), int64(n.stamp))
		n.afterStore(second, int64(n.stamp), int64(n.stamp))
		if e := second.row.Entry(); e == nil || e.Adv {
			t.Errorf("%v: re-stored row %v: entry %v, want one not advertised", mode, tp, e)
		}

		before := sp2
		c := n.sels["path"][0]
		n.readvertiseBest(c, n.groupKey(c, tp))
		if sp2 == before {
			t.Errorf("%v: the re-stored row's trigger strands never ran", mode)
		}
		if e := second.row.Entry(); e == nil || !e.Adv {
			t.Errorf("%v: the fallback did not mark the row it advertised", mode)
		}
	}
}
