package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ndlog/internal/val"
)

// laneSrc: best keeps the cheapest path per (node, destination), which
// makes path an ordered predicate — ascending by C — whose rows path's
// key replaces.
const laneSrc = `
materialize(path, infinity, infinity, keys(1,2)).
materialize(best, infinity, infinity, keys(1,2)).
a1 best(@S, D, min<C>) :- path(@S, D, C).
`

func lanePath(d string, c int64) val.Tuple {
	return val.NewTuple("path", val.NewAddr("n"), val.NewAddr(d), val.NewInt(c))
}

// laneNode is a node of laneSrc under mode with aggregate selections on;
// the path stores it makes are appended to *stores.
func laneNode(t *testing.T, mode Mode, stores *[]Delta) *Node {
	t.Helper()
	return laneNodeOf(t, laneSrc, mode, stores)
}

// laneNodeOf is laneNode for the program src.
func laneNodeOf(t *testing.T, src string, mode Mode, stores *[]Delta) *Node {
	t.Helper()
	prog, err := Compile(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewNode("n", Options{Mode: mode, AggSel: true, OnStore: func(_ string, d Delta, _ float64) {
		if stores != nil && d.Tuple.Pred == "path" {
			*stores = append(*stores, d)
		}
	}})
}

func deltaStrings(ds []Delta) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.String()
	}
	return out
}

// TestLaneSameKeyKeepsPushOrder: two insertions of one path key in one
// drain, the later one cheaper. The lane alone would pop the cheaper
// first and let the dearer replace it; the per-key rule moves the dearer
// to the FIFO before the cheaper enters the lane, so the later insertion
// is the row left stored. A lane of up to laneScan entries compares
// keys, a longer one their hashes: the test runs both, the hashed one
// also with every key colliding, which costs a spurious flush.
func TestLaneSameKeyKeepsPushOrder(t *testing.T) {
	for _, c := range []struct {
		fill    int
		collide bool
	}{{0, false}, {laneScan, false}, {laneScan, true}} {
		n := laneNode(t, PSN, nil)
		if c.collide {
			n.queue.post = func(uint64) uint64 { return 0 }
		}
		for i := range c.fill {
			n.Push(Insert(lanePath(fmt.Sprint("f", i), 100)))
		}
		n.Push(Insert(lanePath("x", 5)))
		n.Push(Insert(lanePath("y", 9)))
		n.Push(Insert(lanePath("x", 3)))
		n.Drain()
		var got []string
		for _, p := range n.Tuples("path") {
			if d := p.Fields[1].String(); d == "x" || d == "y" {
				got = append(got, p.String())
			}
		}
		if want := []string{"path(n,x,3)", "path(n,y,9)"}; !slices.Equal(got, want) {
			t.Errorf("fill=%d collide=%v: path holds %v, want %v", c.fill, c.collide, got, want)
		}
		// Colliding, y's push flushes x's first insertion; x's second
		// then meets y alone, whose key it does not share.
		if nt := n.Netting(); nt.LaneFlushes != 1 || nt.LaneOrdered != uint64(c.fill)+3 {
			t.Errorf("fill=%d collide=%v: %d flushes of %d ordered insertions, want 1 of %d",
				c.fill, c.collide, nt.LaneFlushes, nt.LaneOrdered, c.fill+3)
		}
	}
}

// TestLaneSoftKeyKeepsPushOrder: the per-key rule keys on the table's
// primary key whatever the row's lifetime. path here is soft state keyed
// narrower than its row, so two insertions on one key differ as rows and
// only the key tells the lane that the later one replaces the earlier:
// the later is the row left stored, cheaper or dearer.
func TestLaneSoftKeyKeepsPushOrder(t *testing.T) {
	const src = `
materialize(path, 100, infinity, keys(1,2)).
materialize(best, 100, infinity, keys(1,2)).
a1 best(@S, D, min<C>) :- path(@S, D, C).
`
	for _, cs := range [][2]int64{{5, 3}, {3, 5}} {
		n := laneNodeOf(t, src, PSN, nil)
		n.Push(Insert(lanePath("x", cs[0])))
		n.Push(Insert(lanePath("y", 9)))
		n.Push(Insert(lanePath("x", cs[1])))
		n.Drain()
		want := fmt.Sprintf("[path(n,x,%d) path(n,y,9)]", cs[1])
		if got := fmt.Sprint(n.Tuples("path")); got != want {
			t.Errorf("x at %d then %d: path holds %s, want %s", cs[0], cs[1], got, want)
		}
		if nt := n.Netting(); nt.LaneFlushes != 1 || nt.LaneOrdered != 3 {
			t.Errorf("x at %d then %d: %d flushes of %d ordered insertions, want 1 of 3", cs[0], cs[1], nt.LaneFlushes, nt.LaneOrdered)
		}
	}
}

// TestLaneSkipsBoundedTables: a bounded table evicts its oldest row, so
// reordering its insertions would change which rows it keeps; its
// insertions take the FIFO.
func TestLaneSkipsBoundedTables(t *testing.T) {
	const src = `
materialize(path, infinity, 2, keys(1,2)).
materialize(best, infinity, infinity, keys(1,2)).
a1 best(@S, D, min<C>) :- path(@S, D, C).
`
	var stores []Delta
	n := laneNodeOf(t, src, PSN, &stores)
	for _, c := range []int64{9, 2, 5} {
		n.Push(Insert(lanePath(fmt.Sprint("d", c), c)))
	}
	n.Drain()
	want := []string{"+path(n,d9,9)", "+path(n,d2,2)", "-path(n,d9,9)", "+path(n,d5,5)"}
	if got := deltaStrings(stores); !slices.Equal(got, want) {
		t.Errorf("stores ran %v, want %v (d9, the oldest, evicted)", got, want)
	}
	if nt := n.Netting(); nt.LaneOrdered != 0 {
		t.Errorf("%d insertions of a bounded table ordered, want 0", nt.LaneOrdered)
	}
}

// TestLaneRetractionAfterInsertion: a retraction of a key the lane holds
// moves the lane to the FIFO first, so it runs after that insertion and
// removes the row.
func TestLaneRetractionAfterInsertion(t *testing.T) {
	n := laneNode(t, PSN, nil)
	n.Push(Insert(lanePath("x", 5)))
	n.Push(Deletion(lanePath("x", 5)))
	n.Drain()
	if got := n.Tuples("path"); len(got) != 0 {
		t.Errorf("path holds %v after +x, -x in one drain, want nothing", got)
	}
	if got := n.Netting().LaneFlushes; got != 1 {
		t.Errorf("%d lane flushes, want 1", got)
	}
}

// TestLaneEqualValuesPopInPushOrder: insertions pop best value first,
// and equal values in the order they were pushed.
func TestLaneEqualValuesPopInPushOrder(t *testing.T) {
	var stores []Delta
	n := laneNode(t, PSN, &stores)
	for _, p := range []struct {
		d string
		c int64
	}{{"a", 4}, {"b", 7}, {"c", 4}, {"d", 1}, {"e", 4}} {
		n.Push(Insert(lanePath(p.d, p.c)))
	}
	n.Drain()
	want := []string{"+path(n,d,1)", "+path(n,a,4)", "+path(n,c,4)", "+path(n,e,4)", "+path(n,b,7)"}
	if got := deltaStrings(stores); !slices.Equal(got, want) {
		t.Errorf("stores ran %v, want %v", got, want)
	}
}

// TestLaneSNNeverReorders: SN is the reference the lane is held against,
// so its rounds store in push order and nothing enters a lane.
func TestLaneSNNeverReorders(t *testing.T) {
	var stores []Delta
	n := laneNode(t, SN, &stores)
	for _, c := range []int64{9, 2, 5} {
		n.Push(Insert(lanePath(fmt.Sprint("d", c), c)))
	}
	n.Drain()
	want := []string{"+path(n,d9,9)", "+path(n,d2,2)", "+path(n,d5,5)"}
	if got := deltaStrings(stores); !slices.Equal(got, want) {
		t.Errorf("SN stores ran %v, want %v", got, want)
	}
	if nt := n.Netting(); nt.LaneOrdered != 0 {
		t.Errorf("SN ordered %d insertions, want 0", nt.LaneOrdered)
	}
}

// TestLaneDropsLongArrays: a lane of 10 000 insertions pops in cost
// order, and once it has drained the queue keeps no more than laneKeep
// heap entries and side rows for it — no key counts, no parked array —
// and no FIFO array beyond idleKeep.
func TestLaneDropsLongArrays(t *testing.T) {
	var stores []Delta
	n := laneNode(t, PSN, &stores)
	rng := rand.New(rand.NewSource(1))
	for i := range 10_000 {
		n.Push(Insert(lanePath(fmt.Sprint("d", i), rng.Int63n(1000))))
	}
	if got := n.QueueLen(); got != 10_000 {
		t.Fatalf("QueueLen = %d with the lane full, want 10000", got)
	}
	n.Drain()
	if len(stores) != 10_000 || !slices.IsSortedFunc(stores, func(a, b Delta) int {
		return a.Tuple.Fields[2].Compare(b.Tuple.Fields[2])
	}) {
		t.Errorf("%d stores, not in cost order", len(stores))
	}
	q := &n.queue
	if cap(q.lane) > laneKeep || cap(q.side) > laneKeep || q.kept != nil || q.keptRows != nil || q.keys != nil || cap(q.buf) > idleKeep {
		t.Errorf("drained queue retains lane cap %d, side rows %d, parked %d and %d, %d keys, FIFO cap %d; want <= %d, <= %d, 0, 0, 0, <= %d",
			cap(q.lane), cap(q.side), cap(q.kept), cap(q.keptRows), len(q.keys), cap(q.buf), laneKeep, laneKeep, idleKeep)
	}
}

// TestLaneSmallDrainAllocBudget: a steady-state small drain — a few
// ordered insertions, one of them on a key the lane holds, and a
// retraction — allocates nothing for the lane.
func TestLaneSmallDrainAllocBudget(t *testing.T) {
	n := laneNode(t, PSN, nil)
	ds := []Delta{
		Insert(lanePath("x", 5)), Insert(lanePath("y", 2)), Insert(lanePath("z", 8)),
		Insert(lanePath("x", 4)), Deletion(lanePath("y", 2)),
	}
	cycle := func() {
		for _, d := range ds {
			if !n.toLane(d) {
				n.queue.push(d)
			}
		}
		for n.queue.len() > 0 {
			n.queue.pop()
		}
	}
	cycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Errorf("a small drain allocates %v objects for the lane, want 0", got)
	}
}

// laneValues covers what a lane order's column may hold: ints beyond
// 2^53 beside the floats they round to, NaN, ±0 and ±Inf, and the kinds
// Compare ranks below and above the numbers.
var laneValues = []val.Value{
	val.Nil, val.NewAddr("a"), val.NewAddr("b"),
	val.NewInt(0), val.NewInt(1), val.NewInt(-1), val.NewInt(2), val.NewInt(1 << 53), val.NewInt(1<<53 + 1),
	val.NewInt(1<<53 - 1), val.NewInt(-1<<53 - 1), val.NewInt(-1 << 53), val.NewInt(math.MaxInt64), val.NewInt(math.MinInt64),
	val.NewFloat(0), val.NewFloat(math.Copysign(0, -1)), val.NewFloat(1), val.NewFloat(0.5), val.NewFloat(-2.5),
	val.NewFloat(1 << 53), val.NewFloat(1<<53 + 2), val.NewFloat(9.2233720368547758e18), val.NewFloat(math.NaN()),
	val.NewFloat(math.Inf(1)), val.NewFloat(math.Inf(-1)), val.NewFloat(math.SmallestNonzeroFloat64), val.NewFloat(-math.MaxFloat64),
	val.NewString(""), val.NewString("x"), val.NewString("y"), val.NewBool(false), val.NewBool(true),
	val.NewList(), val.NewList(val.NewInt(1)), val.NewList(val.NewInt(1), val.NewFloat(0.5)), val.NewList(val.NewString("x")),
}

// TestLaneRankMatchesCompare: ranks never order two values against
// Compare — ascending ranks follow it, descending ones reverse it — and
// two values of one rank and one nonzero tag are equal to Compare.
func TestLaneRankMatchesCompare(t *testing.T) {
	for _, a := range laneValues {
		for _, b := range laneValues {
			c := a.Compare(b)
			for _, desc := range []bool{false, true} {
				ra, ta := laneRank(a, desc)
				rb, tb := laneRank(b, desc)
				want := c
				if desc {
					want = -c
				}
				if want < 0 && ra > rb || want > 0 && ra < rb {
					t.Errorf("desc=%v: %v vs %v compares %d but ranks %#x, %#x", desc, a, b, c, ra, rb)
				}
				if ra == rb && ta == tb && ta != 0 && c != 0 {
					t.Errorf("desc=%v: %v and %v share rank %#x and tag %#x but compare %d", desc, a, b, ra, ta, c)
				}
			}
		}
	}
}

// FuzzLaneOrder pushes insertions of an ascending and a descending order
// and pops them, interleaved as the input says, and checks every pop
// against a reference that ranks pending insertions by the lane's rule
// as Compare states it: ascending orders first, then the better value,
// then the earlier push.
func FuzzLaneOrder(f *testing.F) {
	f.Add([]byte{1, 2, 4, 5, 0, 7, 8, 0, 0, 0})
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{40, 200, 1000} {
		in := make([]byte, n)
		for i := range in {
			if in[i] = byte(rng.Intn(256)); i > n/2 && in[i]%3 != 0 && rng.Intn(2) == 0 {
				in[i] -= in[i] % 3 // pop more in the second half
			}
		}
		f.Add(in)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		q := &deltaQueue{orders: []laneOrder{{pred: "up", col: 1}, {pred: "dn", col: 1, desc: true}}}
		type pending struct {
			id   int64
			v    val.Value
			desc bool
		}
		var ref []pending // in push order
		refBefore := func(a, b pending) bool {
			if a.desc != b.desc {
				return b.desc
			}
			if c := a.v.Compare(b.v); c != 0 {
				return (c < 0) != a.desc
			}
			return false // push order decides
		}
		pop := func() {
			best := 0
			for i := range ref {
				if refBefore(ref[i], ref[best]) {
					best = i
				}
			}
			want := ref[best]
			ref = slices.Delete(ref, best, best+1)
			d := q.popLane()
			if got := d.Tuple.Fields[0].Int(); got != want.id {
				t.Fatalf("popped #%d %v, want #%d (%v, desc=%v)", got, d.Tuple, want.id, want.v, want.desc)
			}
		}
		for i, b := range in {
			if b%3 == 0 {
				if len(ref) > 0 {
					pop()
				}
				continue
			}
			ord := int(b%3) - 1
			v := laneValues[int(b/3)%len(laneValues)]
			tp := val.NewTuple(q.orders[ord].pred, val.NewInt(int64(i)), v)
			var h uint32
			if q.keys != nil {
				h = q.laneHash(tp.Fields, ord)
			}
			q.pushLane(Insert(tp), ord, h)
			ref = append(ref, pending{id: int64(i), v: v, desc: ord == 1})
		}
		for len(ref) > 0 {
			pop()
		}
		if len(q.lane) != 0 || len(q.side) != 0 || q.free != 0 {
			t.Fatalf("emptied lane keeps %d entries, %d side rows, free list %d", len(q.lane), len(q.side), q.free)
		}
	})
}

// dominatedPath is a path row of Figure 2's a to b through c, at cost c
// and with the path vector [a, via..., b].
func dominatedPath(c float64, via ...string) val.Tuple {
	p := []val.Value{val.NewAddr("a")}
	for _, v := range via {
		p = append(p, val.NewAddr(v))
	}
	p = append(p, val.NewAddr("b"))
	return val.NewTuple("path", val.NewAddr("a"), val.NewAddr("b"), p[1], val.NewList(p...), val.NewFloat(c))
}

// TestDominatedSkipsLane: on Figure 2 under PSN with aggregate
// selections, spCost(a,b) is 2 once the network has converged. An
// insertion of a path from a to b that costs more takes the FIFO, since
// the selection will not advertise it; one that ties stays in the lane;
// and a dominated insertion on a key the lane holds still moves the lane
// to the FIFO first, so the key's push order holds.
func TestDominatedSkipsLane(t *testing.T) {
	c, err := NewCentral(figure2Program(t), Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadFacts()
	n := c.Node()
	if cur, ok := n.laneSels[0].state.agg.Current([]val.Value{val.NewAddr("a"), val.NewAddr("b")}); !ok || cur.Float() != 2 {
		t.Fatalf("spCost(a,b) = %v, %v; want 2", cur, ok)
	}
	q := &n.queue
	base := n.Netting()

	worse := dominatedPath(7, "d")
	n.Push(Insert(worse))
	if nt := n.Netting(); nt.LaneSkipped != base.LaneSkipped+1 || len(q.lane) != 0 || q.len() != 1 {
		t.Fatalf("cost 7 against 2: %d skipped, lane %d, queue %d; want it in the FIFO", nt.LaneSkipped-base.LaneSkipped, len(q.lane), q.len())
	}

	tie := dominatedPath(2, "e")
	n.Push(Insert(tie))
	if nt := n.Netting(); nt.LaneOrdered != base.LaneOrdered+1 || len(q.lane) != 1 {
		t.Fatalf("cost 2 against 2: %d ordered, lane %d; want it in the lane", nt.LaneOrdered-base.LaneOrdered, len(q.lane))
	}

	// The same key as the tie, dearer: the lane goes to the FIFO first.
	n.Push(Insert(dominatedPath(9, "e")))
	nt := n.Netting()
	if nt.LaneFlushes != base.LaneFlushes+1 || nt.LaneSkipped != base.LaneSkipped+2 || len(q.lane) != 0 {
		t.Fatalf("cost 9 on the tie's key: %d flushes, %d skipped, lane %d; want 1, 2, 0",
			nt.LaneFlushes-base.LaneFlushes, nt.LaneSkipped-base.LaneSkipped, len(q.lane))
	}
	var got []string
	for q.len() > 0 {
		got = append(got, q.pop().String())
	}
	want := []string{Insert(worse).String(), Insert(tie).String(), Insert(dominatedPath(9, "e")).String()}
	if !slices.Equal(got, want) {
		t.Errorf("queue pops %v, want %v", got, want)
	}
}
