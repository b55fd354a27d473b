package engine

import (
	"fmt"
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
// entries for it — no key counts, no parked array — and no FIFO array
// beyond keepCap.
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
	if cap(q.lane) > laneKeep || q.kept != nil || q.keys != nil || cap(q.buf) > keepCap {
		t.Errorf("drained queue retains lane cap %d, parked %d, %d keys, FIFO cap %d; want <= %d, 0, 0, <= %d",
			cap(q.lane), cap(q.kept), len(q.keys), cap(q.buf), laneKeep, keepCap)
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
