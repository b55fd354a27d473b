package engine

import (
	"testing"

	"ndlog/internal/val"
)

// pairSrc: seen's head drops item's value, so a replacement of item(n,
// k, v) derives the same head from both tuples, and seen is hard state
// keyed on its whole row.
const pairSrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(item, infinity, infinity, keys(1,2)).

r1 seen(@R, K) :- #link(@N, @R, _C), item(@N, K, _V).
`

func item(k string, v int64) val.Tuple {
	return val.NewTuple("item", val.NewAddr("n"), val.NewString(k), val.NewInt(v))
}

// TestPairedWalkPrunedOldStillAdvertises is the DESIGN.md §15 "−a … +a"
// trap at a paired walk. A replacement whose two heads are equal sends
// both: dropping the pair would be right only if the displaced row's head
// had been sent. A displaced row whose strands never ran — what an
// aggregate selection's pruning leaves — sent nothing, and the
// replacement's head must still arrive; an advertised one's receiver ends
// with the head counted once. (The planner's proof keeps a pruned
// source's paired heads apart, so the test clears the flag by hand, as a
// pruned row's is.)
func TestPairedWalkPrunedOldStillAdvertises(t *testing.T) {
	prog, err := Compile(mustParse(t, pairSrc))
	if err != nil {
		t.Fatal(err)
	}
	seen := val.NewTuple("seen", val.NewAddr("r"), val.NewString("k"))
	for _, advertised := range []bool{false, true} {
		n := prog.NewNode("n", Options{AggSel: true})
		r := prog.NewNode("r", Options{AggSel: true})
		n.Push(Insert(val.NewTuple("link", val.NewAddr("n"), val.NewAddr("r"), val.NewInt(1))))
		n.Push(Insert(item("k", 1)))
		first := n.Drain()
		e, _ := n.Catalog().Get("item").Get(item("k", 1))
		e.Adv = advertised
		if advertised {
			deliver(r, first)
		}
		n.Push(Insert(item("k", 2)))
		second := n.Drain()
		if got := n.Netting().PairedWalks; got != 1 {
			t.Fatalf("advertised=%v: %d paired walks, want 1", advertised, got)
		}
		if len(second) != 2 || second[0].Delta.Sign >= 0 || second[1].Delta.Sign <= 0 {
			t.Errorf("advertised=%v: the equal heads sent %v, want −seen, +seen", advertised, second)
		}
		deliver(r, second)
		if rows := r.Tuples("seen"); len(rows) != 1 || !rows[0].Equal(seen) {
			t.Errorf("advertised=%v: receiver holds %v, want %v", advertised, rows, seen)
		} else if e, _ := r.Catalog().Get("seen").Get(seen); e.Count != 1 {
			t.Errorf("advertised=%v: %v has count %d, want 1", advertised, seen, e.Count)
		}
	}
}

func deliver(r *Node, out []OutDelta) {
	for _, o := range out {
		r.Push(o.Delta)
	}
	r.Drain()
}

// TestPairedWalkOneHalf: a selection on the value the replacement
// changes passes for one tuple only, so each partner derives one head of
// the pair, and the walk routes just that one: the head appears when
// the value crosses the bound upwards and goes when it crosses back.
func TestPairedWalkOneHalf(t *testing.T) {
	prog, err := Compile(mustParse(t, `
materialize(link, infinity, infinity, keys(1,2)).
materialize(item, infinity, infinity, keys(1,2)).

r1 big(@R, K) :- #link(@N, @R, _C), item(@N, K, V), V > 5.
`))
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NewNode("n", Options{})
	r := prog.NewNode("r", Options{})
	n.Push(Insert(val.NewTuple("link", val.NewAddr("n"), val.NewAddr("r"), val.NewInt(1))))
	n.Push(Insert(item("k", 3)))
	deliver(r, n.Drain())
	for i, v := range []int64{9, 2, 7} {
		n.Push(Insert(item("k", v)))
		out := n.Drain()
		if len(out) != 1 {
			t.Fatalf("item k → %d: sent %v, want one head", v, out)
		}
		deliver(r, out)
		if got, want := len(r.Tuples("big")), int(v/6); got != want {
			t.Errorf("item k → %d: receiver holds %v", v, r.Tuples("big"))
		}
		if got := n.Netting().PairedWalks; got != uint64(i+1) {
			t.Errorf("item k → %d: %d paired walks, want %d", v, got, i+1)
		}
	}
}
