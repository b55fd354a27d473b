package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/parser"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

func mustParse(t testing.TB, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func central(t *testing.T, src string, opts Options) *Central {
	t.Helper()
	c, err := NewCentral(mustParse(t, src), opts)
	if err != nil {
		t.Fatalf("NewCentral: %v", err)
	}
	c.LoadFacts()
	return c
}

const tcSrc = `
materialize(edge, infinity, infinity, keys(1,2)).
r1 reach(@S,@D) :- #edge(@S,@D).
r2 reach(@S,@D) :- #edge(@S,@Z), reach(@Z,@D).
query reach(@S,@D).
`

func edge(s, d string) val.Tuple {
	return val.NewTuple("edge", val.NewAddr(s), val.NewAddr(d))
}

func reach(s, d string) val.Tuple {
	return val.NewTuple("reach", val.NewAddr(s), val.NewAddr(d))
}

// tcOracle computes transitive closure by brute force.
func tcOracle(edges [][2]string) map[string]bool {
	adj := map[string]map[string]bool{}
	nodes := map[string]bool{}
	for _, e := range edges {
		if adj[e[0]] == nil {
			adj[e[0]] = map[string]bool{}
		}
		adj[e[0]][e[1]] = true
		nodes[e[0]] = true
		nodes[e[1]] = true
	}
	out := map[string]bool{}
	for changed := true; changed; {
		changed = false
		for s := range nodes {
			for z := range adj[s] {
				if !out[s+","+z] {
					out[s+","+z] = true
					changed = true
				}
				for d := range nodes {
					if out[z+","+d] && !out[s+","+d] {
						out[s+","+d] = true
						changed = true
					}
				}
			}
		}
	}
	return out
}

func reachSet(c *Central) map[string]bool {
	out := map[string]bool{}
	for _, t := range c.Tuples("reach") {
		out[t.Fields[0].Addr()+","+t.Fields[1].Addr()] = true
	}
	return out
}

func sameSet(t *testing.T, got, want map[string]bool, label string) {
	t.Helper()
	for k := range want {
		if !got[k] {
			t.Errorf("%s: missing %s", label, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: spurious %s", label, k)
		}
	}
}

func TestCentralTransitiveClosure(t *testing.T) {
	edges := [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "e"}, {"e", "c"}}
	for _, mode := range []Mode{PSN, SN} {
		c := central(t, tcSrc, Options{Mode: mode})
		for _, e := range edges {
			c.Insert(edge(e[0], e[1]))
		}
		sameSet(t, reachSet(c), tcOracle(edges), mode.String())
	}
}

func TestTheorem1SNEqualsPSNRandomGraphs(t *testing.T) {
	// Theorem 1: FPS(p) = FPP(p) — SN and PSN compute the same fixpoint.
	// Random graphs, random insertion orders.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(6)
		var edges [][2]string
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Float64() < 0.3 {
					edges = append(edges, [2]string{node(i), node(j)})
				}
			}
		}
		rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })

		results := map[Mode]map[string]bool{}
		for _, mode := range []Mode{PSN, SN} {
			c := central(t, tcSrc, Options{Mode: mode})
			// Insert in batches to exercise iteration batching in SN.
			for i := 0; i < len(edges); {
				batch := 1 + rng.Intn(3)
				for j := 0; j < batch && i < len(edges); j++ {
					c.node.Push(Insert(edge(edges[i][0], edges[i][1])))
					i++
				}
				c.Fixpoint()
			}
			results[mode] = reachSet(c)
		}
		oracle := tcOracle(edges)
		sameSet(t, results[PSN], oracle, fmt.Sprintf("trial %d psn", trial))
		sameSet(t, results[SN], oracle, fmt.Sprintf("trial %d sn", trial))

		// The same graph with an event: every executor reaches PSN's
		// fixpoint under SN too, and no executor stores the event.
		want := runEvents(t, "central", PSN, n, edges)
		for _, ex := range []string{"central", "cluster", "parallel"} {
			for _, mode := range []Mode{PSN, SN} {
				got := runEvents(t, ex, mode, n, edges)
				label := fmt.Sprintf("trial %d events %s %v", trial, ex, mode)
				if len(got["hello"]) != 0 {
					t.Errorf("%s: event stored: %v", label, got["hello"])
				}
				for _, pred := range []string{"reach", "ack"} {
					if fmt.Sprint(got[pred]) != fmt.Sprint(want[pred]) {
						t.Errorf("%s: %s = %v, want %v", label, pred, got[pred], want[pred])
					}
				}
			}
		}
	}

	// An event joins only what is stored when it runs, in either mode:
	// ev arrives before item in one SN round, so neither sees the other.
	for _, mode := range []Mode{PSN, SN} {
		c := central(t, `
materialize(ev, 0, infinity, keys(1,2)).
materialize(item, infinity, infinity, keys(1,2)).
r1 out(@S,I) :- ev(@S,K), item(@S,I).
`, Options{Mode: mode})
		c.node.Push(Insert(val.NewTuple("ev", val.NewAddr("a"), val.NewInt(1))))
		c.node.Push(Insert(val.NewTuple("item", val.NewAddr("a"), val.NewInt(7))))
		c.Fixpoint()
		if ev, out := c.Tuples("ev"), c.Tuples("out"); len(ev) != 0 || len(out) != 0 {
			t.Errorf("%v: ev=%v out=%v, want both empty", mode, ev, out)
		}
	}
}

// evSrc is tcSrc with an event: each edge fires hello at its source,
// where the event joins the stored edge to acknowledge it at the
// destination. The edge is stored before its hello is derived, so ack
// holds one row per edge whatever the order of evaluation.
const evSrc = tcSrc + `
materialize(hello, 0, infinity, keys(1,2)).
e1 hello(@S,@D) :- #edge(@S,@D).
e2 ack(@D,@S) :- hello(@S,@D), #edge(@S,@D).
`

// runEvents evaluates evSrc over the edges among n nodes on one executor
// in one mode, and returns its reach, ack and hello tables.
func runEvents(t *testing.T, ex string, mode Mode, n int, edges [][2]string) map[string][]val.Tuple {
	t.Helper()
	prog := mustParse(t, evSrc)
	for _, e := range edges {
		prog.Facts = append(prog.Facts, edge(e[0], e[1]))
	}
	var tuples func(pred string) []val.Tuple
	switch ex {
	case "central":
		c, err := NewCentral(prog, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		c.LoadFacts()
		tuples = c.Tuples
	case "cluster":
		sim := simnet.New(1)
		cl, err := NewCluster(sim, prog, Options{Mode: mode}, ClusterConfig{ProcDelay: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			cl.AddNode(simnet.NodeID(node(i)))
		}
		for _, e := range edges {
			if err := sim.AddLink(simnet.NodeID(e[0]), simnet.NodeID(e[1]), 0.010, 0); err != nil {
				t.Fatal(err)
			}
		}
		runCluster(t, cl)
		tuples = cl.Tuples
	case "parallel":
		p, err := NewParallel(prog, Options{Mode: mode, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p.AddNode(node(i))
		}
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		tuples = p.Tuples
	}
	out := map[string][]val.Tuple{}
	for _, pred := range []string{"reach", "ack", "hello"} {
		out[pred] = tuples(pred)
	}
	return out
}

func TestTheorem2DerivationCounts(t *testing.T) {
	// Theorem 2: no repeated inferences. On a diamond, reach(a,d) has
	// exactly two derivations (via b and via c); the count algorithm's
	// per-tuple count exposes any duplicate inference.
	c := central(t, tcSrc, Options{})
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		c.Insert(edge(e[0], e[1]))
	}
	counts := map[string]int{
		"reach(a,b)": 1, "reach(a,c)": 1, "reach(b,d)": 1, "reach(c,d)": 1,
		"reach(a,d)": 2,
	}
	tbl := c.node.cat.Get("reach")
	for key, want := range counts {
		found := false
		for _, tp := range c.Tuples("reach") {
			if tp.Key() == key {
				found = true
				if got := tbl.Count(tp); got != want {
					t.Errorf("%s count = %d, want %d", key, got, want)
				}
			}
		}
		if !found {
			t.Errorf("missing %s", key)
		}
	}
}

func TestDeletionCountAlgorithm(t *testing.T) {
	// Deleting one diamond edge leaves reach(a,d) alive (count 2 -> 1);
	// deleting the second removes it.
	c := central(t, tcSrc, Options{})
	for _, e := range [][2]string{{"a", "b"}, {"a", "c"}, {"b", "d"}, {"c", "d"}} {
		c.Insert(edge(e[0], e[1]))
	}
	c.Delete(edge("b", "d"))
	got := reachSet(c)
	if !got["a,d"] {
		t.Fatal("reach(a,d) should survive deletion of one support")
	}
	if got["b,d"] {
		t.Fatal("reach(b,d) should be deleted")
	}
	c.Delete(edge("c", "d"))
	got = reachSet(c)
	if got["a,d"] || got["c,d"] {
		t.Fatalf("reach to d should be gone: %v", got)
	}
	// Everything else survives.
	if !got["a,b"] || !got["a,c"] {
		t.Fatalf("unrelated facts lost: %v", got)
	}
}

func TestTheorem3EventualConsistencyRandomUpdates(t *testing.T) {
	// Theorem 3: after a burst of inserts/deletes/updates quiesces, the
	// state equals a from-scratch run on the final base facts.
	//
	// The count algorithm the paper adopts (Section 4, citing Gupta et
	// al.) is exact only when derivations are acyclic. The paper's
	// programs ensure this with path vectors (a tuple can never support
	// itself because the vector strictly grows); for plain transitive
	// closure the equivalent restriction is an acyclic edge set, so this
	// test generates random DAGs (edges i -> j only for i < j).
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(5)
		c := central(t, tcSrc, Options{})
		live := map[[2]string]bool{}
		for step := 0; step < 40; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i >= j {
				continue
			}
			e := [2]string{node(i), node(j)}
			if live[e] && rng.Float64() < 0.4 {
				c.Delete(edge(e[0], e[1]))
				delete(live, e)
			} else if !live[e] {
				c.Insert(edge(e[0], e[1]))
				live[e] = true
			}
		}
		// From-scratch run on the surviving edges.
		fresh := central(t, tcSrc, Options{})
		for e := range live {
			fresh.Insert(edge(e[0], e[1]))
		}
		sameSet(t, reachSet(c), reachSet(fresh), fmt.Sprintf("trial %d", trial))
	}
}

func node(i int) string { return string(rune('a' + i)) }

func TestSelfJoinDeletionCounting(t *testing.T) {
	// Non-linear local rule with a self-join: deleting a base tuple must
	// cancel derivations that used it in either or both positions.
	src := `
materialize(n, infinity, infinity, keys(1,2)).
r1 pair(@A, X, Y) :- n(@A, X), n(@A, Y).
`
	c := central(t, src, Options{})
	nt := func(x int64) val.Tuple {
		return val.NewTuple("n", val.NewAddr("a"), val.NewInt(x))
	}
	c.Insert(nt(1))
	c.Insert(nt(2))
	if got := len(c.Tuples("pair")); got != 4 {
		t.Fatalf("pairs = %d, want 4", got)
	}
	c.Delete(nt(1))
	// Surviving pairs: (2,2) only.
	pairs := c.Tuples("pair")
	if len(pairs) != 1 || pairs[0].Fields[1].Int() != 2 || pairs[0].Fields[2].Int() != 2 {
		t.Fatalf("pairs after delete = %v", pairs)
	}
	c.Delete(nt(2))
	if got := len(c.Tuples("pair")); got != 0 {
		t.Fatalf("pairs after full delete = %d", got)
	}
}

func TestSelfJoinEventualConsistencyProperty(t *testing.T) {
	src := `
materialize(n, infinity, infinity, keys(1,2)).
r1 pair(@A, X, Y) :- n(@A, X), n(@A, Y).
r2 sum3(@A, Z) :- n(@A, X), n(@A, Y), Z := X + Y, Z < 7.
`
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		c := central(t, src, Options{})
		live := map[int64]bool{}
		for step := 0; step < 30; step++ {
			x := int64(rng.Intn(5))
			tup := val.NewTuple("n", val.NewAddr("a"), val.NewInt(x))
			if live[x] {
				c.Delete(tup)
				delete(live, x)
			} else {
				c.Insert(tup)
				live[x] = true
			}
		}
		fresh := central(t, src, Options{})
		for x := range live {
			fresh.Insert(val.NewTuple("n", val.NewAddr("a"), val.NewInt(x)))
		}
		for _, pred := range []string{"pair", "sum3"} {
			got, want := c.Tuples(pred), fresh.Tuples(pred)
			if len(got) != len(want) {
				t.Fatalf("trial %d: %s has %d tuples, fresh %d", trial, pred, len(got), len(want))
			}
			for i := range got {
				if !got[i].Equal(want[i]) {
					t.Fatalf("trial %d: %s[%d] = %v, fresh %v", trial, pred, i, got[i], want[i])
				}
			}
		}
	}
}

func TestUpdateIsDeleteThenInsert(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
r1 cost(@S, @D, C) :- link(@S, @D, C).
`
	c := central(t, src, Options{})
	l1 := val.NewTuple("link", val.NewAddr("a"), val.NewAddr("b"), val.NewInt(5))
	l2 := val.NewTuple("link", val.NewAddr("a"), val.NewAddr("b"), val.NewInt(2))
	c.Insert(l1)
	if got := c.Tuples("cost"); len(got) != 1 || got[0].Fields[2].Int() != 5 {
		t.Fatalf("cost = %v", got)
	}
	c.Update(l1, l2)
	got := c.Tuples("cost")
	if len(got) != 1 || got[0].Fields[2].Int() != 2 {
		t.Fatalf("cost after update = %v", got)
	}
	// Primary-key replacement without explicit delete does the same.
	l3 := val.NewTuple("link", val.NewAddr("a"), val.NewAddr("b"), val.NewInt(9))
	c.Insert(l3)
	got = c.Tuples("cost")
	if len(got) != 1 || got[0].Fields[2].Int() != 9 {
		t.Fatalf("cost after PK replace = %v", got)
	}
}
