package engine

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"ndlog/internal/val"
)

// aggNetSrc: the gate atom lets one trigger delta join many item rows
// inside a single aggregate strand run.
const aggNetSrc = `
materialize(gate, infinity, infinity, keys(1)).
materialize(item, infinity, infinity, keys(1,2)).
materialize(best, infinity, infinity, keys(1)).

b1 best(@N, max<C>) :- gate(@N), item(@N, _K, C).

query best(@N, C).
`

// TestAggregateNetsIntermediateSteps: when one delta walks a group's
// max up through several join results, only the net transition may be
// emitted. Intermediate delete+insert pairs would re-trigger every
// downstream strand once per step — in recursive programs that chatter
// compounds per hop and has melted whole nodes (see runAggStrands).
func TestAggregateNetsIntermediateSteps(t *testing.T) {
	var emitted []Delta
	c := central(t, aggNetSrc, Options{
		OnDerive: func(_, rule string, d Delta) {
			if rule == "b1" {
				emitted = append(emitted, d)
			}
		},
	})
	item := func(k string, cost int64) val.Tuple {
		return val.NewTuple("item", val.NewAddr("n"), val.NewString(k), val.NewInt(cost))
	}
	// Items first: without the gate the aggregate's join is empty, so
	// nothing is emitted while they accumulate.
	c.Insert(item("a", 3))
	c.Insert(item("b", 9))
	c.Insert(item("c", 5))
	if len(emitted) != 0 {
		t.Fatalf("emissions before gate: %v", emitted)
	}

	// The gate joins all three items in one strand run. The max walks
	// 3 -> 9 internally; exactly one +best(9) may come out.
	c.Insert(val.NewTuple("gate", val.NewAddr("n")))
	if len(emitted) != 1 || emitted[0].Sign != +1 || emitted[0].Tuple.Fields[1].Int() != 9 {
		t.Fatalf("gate insert emitted %v, want single +best(n,9)", emitted)
	}
	if rows := c.Tuples("best"); len(rows) != 1 || rows[0].Fields[1].Int() != 9 {
		t.Fatalf("best = %v, want (n,9)", rows)
	}

	// Deleting the gate walks the max back down through the Removes;
	// the net emission is the single retraction of the stored value.
	emitted = nil
	c.Delete(val.NewTuple("gate", val.NewAddr("n")))
	if len(emitted) != 1 || emitted[0].Sign != -1 || emitted[0].Tuple.Fields[1].Int() != 9 {
		t.Fatalf("gate delete emitted %v, want single -best(n,9)", emitted)
	}
	if rows := c.Tuples("best"); len(rows) != 0 {
		t.Fatalf("best rows survived gate deletion: %v", rows)
	}

	// Incremental single-row path still works: re-gate, then a better
	// item replaces the stored max with one delete+insert pair.
	c.Insert(val.NewTuple("gate", val.NewAddr("n")))
	emitted = nil
	c.Insert(item("d", 12))
	if len(emitted) != 2 || emitted[0].Sign != -1 || emitted[0].Tuple.Fields[1].Int() != 9 ||
		emitted[1].Sign != +1 || emitted[1].Tuple.Fields[1].Int() != 12 {
		t.Fatalf("improvement emitted %v, want -best(9) +best(12)", emitted)
	}
}

// replaceSrc: route rows replace by (node, dst, via); cheapest is their
// min per (node, dst) and told is route's own trigger strand — the
// advertisement an aggregate selection on route may suppress. For the
// planner to prove that pruning safe, told extends a route by one step
// (DESIGN.md §11 "Which selections prune"), and r0 makes via route's
// path vector; the tests insert routes directly, a name standing in
// for the vector, and a zero-cost step.
const replaceSrc = `
materialize(route, infinity, infinity, keys(1,2,3)).
materialize(cheapest, infinity, infinity, keys(1,2)).
materialize(told, infinity, infinity, keys(1,2,3,4)).

r0 route(@N, D, Via, C) :- hop(@N, D, C), Via := f_concatPath(N, [D]).
r1 cheapest(@N, D, min<C>) :- route(@N, D, _Via, C).
r2 told(@N, D, Via, C2) :- route(@N, D, Via, C), step(@N, K), C2 := C + K.

query cheapest(@N, D, C).
`

// zeroStep is the step fact under which told copies route's cost.
var zeroStep = val.NewTuple("step", val.NewAddr("n"), val.NewInt(0))

func route(via string, cost int64) val.Tuple {
	return val.NewTuple("route", val.NewAddr("n"), val.NewString("d"), val.NewString(via), val.NewInt(cost))
}

// TestReplacementIsOneAggregateWindow: a key replacement takes the
// displaced row out of its group and puts the new one in inside one
// netting window, so a minimum that moves c → alt → c' emits one
// retract/insert pair, and one that comes back to c — or that neither
// row ever was — emits nothing.
func TestReplacementIsOneAggregateWindow(t *testing.T) {
	var emitted []Delta
	c := central(t, replaceSrc, Options{
		OnDerive: func(_, rule string, d Delta) {
			if rule == "r1" {
				emitted = append(emitted, d)
			}
		},
	})
	cost := func(d Delta) int64 { return d.Tuple.Fields[2].Int() }
	c.Insert(route("x", 5))
	c.Insert(route("y", 8)) // the alternate

	// 5 → (8) → 6: one pair, not −5 +8 −8 +6.
	emitted = nil
	c.Insert(route("x", 6))
	if len(emitted) != 2 || emitted[0].Sign != -1 || cost(emitted[0]) != 5 ||
		emitted[1].Sign != +1 || cost(emitted[1]) != 6 {
		t.Fatalf("5 -> alt -> 6 emitted %v, want -cheapest(5) +cheapest(6)", emitted)
	}

	// The replaced row is not the minimum and does not become it.
	emitted = nil
	c.Insert(route("y", 9))
	if len(emitted) != 0 {
		t.Fatalf("non-best replacement emitted %v, want nothing", emitted)
	}

	// 6 → (9) → 6 through a second row of the same value: x leaves and
	// comes back at the cost z already holds.
	c.Insert(route("z", 6))
	emitted = nil
	c.Insert(route("x", 7))
	c.Insert(route("x", 6))
	if len(emitted) != 0 {
		t.Fatalf("minimum held by a tie, emitted %v, want nothing", emitted)
	}
	if rows := c.Tuples("cheapest"); len(rows) != 1 || rows[0].Fields[2].Int() != 6 {
		t.Fatalf("cheapest = %v, want (n,d,6)", rows)
	}
	got := c.Node().Netting()
	if got.ReplaceWindows != 4 || got.ReplaceSilent != 3 {
		t.Errorf("netting = %+v, want 4 windows of which 3 silent", got)
	}
}

// TestReplacedRowIsNotTakenForAdvertised: under aggregate selections a
// non-improving replacement of an advertised row is stored unadvertised;
// when the group's best is later retracted and the replacement becomes
// the best, it must be advertised then. The replacement reuses the
// displaced tuple's row: a stale Adv flag there made readvertiseBest
// return early — a stable wrong fixpoint with nothing in flight.
func TestReplacedRowIsNotTakenForAdvertised(t *testing.T) {
	c := central(t, replaceSrc, Options{AggSel: true})
	c.Insert(zeroStep)
	c.Insert(route("x", 5)) // best, advertised
	c.Insert(route("y", 3)) // improves: best, advertised
	c.Insert(route("x", 4)) // replaces the advertised x row; 3 stays best
	if got := c.Tuples("told"); len(got) != 1 || !got[0].Fields[2].Equal(val.NewString("y")) {
		t.Fatalf("told = %v, want only the advertisement of y", got)
	}
	c.Delete(route("y", 3)) // x(4) is now the group's best
	got := c.Tuples("told")
	if len(got) != 1 || !got[0].Fields[2].Equal(val.NewString("x")) || got[0].Fields[3].Int() != 4 {
		t.Fatalf("told = %v, want the replacement route x at 4 advertised", got)
	}
}

// TestReadvertiseTieBreak: when the group's best is retracted, the
// fallback advertises the lowest-stamped best-valued row, ties broken by
// tuple order. Under SN one iteration shares a stamp, so sixteen tied
// rows stored in one batch must yield the same representative whatever
// order they arrived in — the order that decides their bucket positions.
func TestReadvertiseTieBreak(t *testing.T) {
	vias := make([]string, 16)
	for i := range vias {
		vias[i] = fmt.Sprintf("v%02d", i)
	}
	shuffled := slices.Clone(vias)
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, order := range [][]string{vias, shuffled} {
		c := central(t, replaceSrc, Options{Mode: SN, AggSel: true})
		c.Insert(zeroStep)
		c.Insert(route("best", 1))
		n := c.Node()
		for _, via := range order {
			n.Push(Insert(route(via, 5)))
		}
		c.Fixpoint()
		if got := c.Tuples("told"); len(got) != 1 {
			t.Fatalf("told = %v, want only the best's advertisement", got)
		}
		c.Delete(route("best", 1))
		got := c.Tuples("told")
		if len(got) != 1 || !got[0].Fields[2].Equal(val.NewString("v00")) {
			t.Errorf("arrival order %v: told = %v, want the tie's least tuple, via v00", order, got)
		}
	}
}
