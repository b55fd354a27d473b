package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/table"
	"ndlog/internal/val"
)

// mixQueue makes n's queue pop, from now on, a random pending delta
// among those the engine's rules let go first, drawn by rng. The rules
// are per-key push order — a delta waits for every earlier pending delta
// on its predicate's primary key (the whole row, for a predicate with
// none), so that no retraction goes ahead of the insertion it retracts
// or that was folded into its place — and the lane's own: an entry waits
// for the FIFO's deltas on its key, while the entries the lane holds
// (key-disjoint, by its flush rule) go in any order.
func mixQueue(n *Node, rng *rand.Rand) {
	q := &n.queue
	keyOf := func(pred string) []int {
		if d := n.prog.decls[pred]; d != nil {
			return d.Keys
		}
		return nil
	}
	// first returns the earliest FIFO position up to end whose delta
	// shares t's key, or -1.
	first := func(t val.Tuple, end int) int {
		key := keyOf(t.Pred)
		for j := q.head; j < end; j++ {
			u := q.buf[j].Tuple
			if key == nil && u.Equal(t) || key != nil && sameKey(u, t, key) {
				return j
			}
		}
		return -1
	}
	q.mix = func() {
		fifo := len(q.buf) - q.head
		r := rng.Intn(fifo + len(q.lane))
		if r < fifo {
			mixToHead(q, first(q.buf[q.head+r].Tuple, q.head+r+1))
			return
		}
		e := q.lane[r-fifo]
		row := &q.side[e.slot&laneSlot]
		t := val.Tuple{Pred: q.orders[row.ord].pred, Fields: row.fields}
		if j := first(t, len(q.buf)); j >= 0 {
			mixToHead(q, j)
			return
		}
		// Bubble the entry to the root, each ancestor on its path one
		// level down (which keeps the heap below it), and pop it.
		for k := r - fifo; k > 0; k = (k - 1) / 4 {
			p := (k - 1) / 4
			q.lane[k], q.lane[p] = q.lane[p], q.lane[k]
		}
		q.push(q.popLane())
		mixToHead(q, len(q.buf)-1)
	}
}

// mixToHead moves the FIFO's delta at j to its head, the deltas before it
// one place back, and renumbers the open retractions among them.
func mixToHead(q *deltaQueue, j int) {
	if j <= q.head {
		return
	}
	d := q.buf[j]
	copy(q.buf[q.head+1:j+1], q.buf[q.head:j])
	q.buf[q.head] = d
	from, to := q.popped, q.popped+uint64(j-q.head)
	for i := q.oh; i < len(q.opens); i++ {
		o := &q.opens[i]
		old := o.seq
		switch {
		case old == to:
			o.seq = from
		case old >= from && old < to:
			o.seq++
		default:
			continue
		}
		if s, ok := q.open[o.hash]; ok && s == old {
			q.open[o.hash] = o.seq
		}
	}
	slices.SortStableFunc(q.opens[q.oh:], func(a, b openRet) int { return int(a.seq) - int(b.seq) })
}

// mixRun runs Figure 1 on Figure 2's network, then moves link a↔b from
// cost 5 to 2 and 4 in one burst and drops link c↔b in another, each
// step to its fixpoint, with every
// node's queue mixed by a source of seed (none for seed 0: the FIFO and
// lane order). soft makes path soft state. It returns every table's rows
// with their counts, node by node, or with aggsel the shortestPath rows
// alone.
func mixRun(t *testing.T, cluster, aggsel, soft bool, seed int64) []string {
	t.Helper()
	src := programs.ShortestPath("")
	if soft {
		src = strings.Replace(src, "materialize(path, infinity,", "materialize(path, 1000,", 1)
	}
	prog := mustParse(t, src)
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	opts := Options{AggSel: aggsel}
	var nodes []*Node
	var run func()
	// burst queues ds at their nodes and drains them together.
	var burst func(ds ...Delta)
	if cluster {
		sim := simnet.New(1)
		cl, err := NewCluster(sim, prog, opts, ClusterConfig{ProcDelay: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []simnet.NodeID{"a", "b", "c", "d", "e"} {
			nodes = append(nodes, cl.AddNode(id))
		}
		for _, l := range figure2 {
			if err := sim.AddLink(simnet.NodeID(l.a), simnet.NodeID(l.b), 0.010, 0); err != nil {
				t.Fatal(err)
			}
		}
		run = func() { runCluster(t, cl) }
		burst = func(ds ...Delta) {
			last := len(ds) - 1
			for _, d := range ds[:last] {
				cl.Node(simnet.NodeID(d.Tuple.Loc())).Push(d)
			}
			if err := cl.Inject(ds[last].Tuple.Loc(), ds[last]); err != nil {
				t.Fatal(err)
			}
			runCluster(t, cl)
		}
	} else {
		c, err := NewCentral(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes = []*Node{c.Node()}
		run = c.LoadFacts
		burst = func(ds ...Delta) {
			for _, d := range ds {
				c.Node().Push(d)
			}
			c.Fixpoint()
		}
	}
	if seed != 0 {
		rng := rand.New(rand.NewSource(seed))
		for _, n := range nodes {
			mixQueue(n, rng)
		}
	}
	link := func(a, b string, cost float64) val.Tuple { return programs.LinkFact("link", a, b, cost) }
	run()
	// a↔b goes from 5 to 2 and on to 4 in one burst — each insertion
	// replaces the link by key — then c↔b goes.
	burst(Deletion(link("a", "b", 5)), Insert(link("a", "b", 2)), Insert(link("a", "b", 4)),
		Deletion(link("b", "a", 5)), Insert(link("b", "a", 2)), Insert(link("b", "a", 4)))
	burst(Deletion(link("c", "b", 1)), Deletion(link("b", "c", 1)))
	var rows []string
	for _, n := range nodes {
		for _, tb := range n.cat.Tables() {
			if aggsel && tb.Name() != "shortestPath" {
				continue
			}
			tb.Scan(func(e *table.Entry) bool {
				if aggsel {
					rows = append(rows, fmt.Sprintf("%s: %v", n.id, tb.Tuple(e)))
				} else {
					rows = append(rows, fmt.Sprintf("%s: %v x%d", n.id, tb.Tuple(e), e.Count))
				}
				return true
			})
		}
	}
	slices.Sort(rows)
	return rows
}

// TestAnyPopOrderSameFixpoint: Figure 1's fixpoint, through a cold start
// and a cost change and a link loss, does not depend on the order a node
// pops its pending deltas in, within the engine's rules (mixQueue): 20
// random orders on Central and Cluster, path hard and soft state, give
// the FIFO-and-lane run's rows and counts in every table, or with
// aggregate selections — where the order decides which candidates are
// pruned — its shortestPath rows.
func TestAnyPopOrderSameFixpoint(t *testing.T) {
	for _, cluster := range []bool{false, true} {
		for _, aggsel := range []bool{false, true} {
			for _, soft := range []bool{false, true} {
				name := fmt.Sprintf("cluster=%v aggsel=%v soft=%v", cluster, aggsel, soft)
				want := mixRun(t, cluster, aggsel, soft, 0)
				for seed := int64(1); seed <= 20; seed++ {
					got := mixRun(t, cluster, aggsel, soft, seed)
					if i := firstDiff(got, want); i >= 0 {
						t.Errorf("%s seed %d: %d rows, want %d; first difference at row %d: got %q, want %q",
							name, seed, len(got), len(want), i, at(got, i), at(want, i))
						break
					}
				}
			}
		}
	}
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff(a, b []string) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

func at(rows []string, i int) string {
	if i < len(rows) {
		return rows[i]
	}
	return "(none)"
}
