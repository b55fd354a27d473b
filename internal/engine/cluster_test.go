package engine

import (
	"fmt"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// figure2Cluster builds the Section 2.2 network as a distributed
// deployment: one engine node per network node, link facts at both
// endpoints, simulator links with 10ms latency.
func figure2Cluster(t *testing.T, opts Options, cfg ClusterConfig) (*simnet.Sim, *Cluster) {
	t.Helper()
	sim := simnet.New(1)
	cl, err := NewCluster(sim, figure2Program(t), opts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []simnet.NodeID{"a", "b", "c", "d", "e"} {
		cl.AddNode(id)
	}
	for _, l := range figure2 {
		if err := sim.AddLink(simnet.NodeID(l.a), simnet.NodeID(l.b), 0.010, 0); err != nil {
			t.Fatal(err)
		}
	}
	return sim, cl
}

// figure2Program is the shortest-path program with Figure 2's links as
// facts, one in each direction.
func figure2Program(t *testing.T) *ast.Program {
	t.Helper()
	prog := mustParse(t, programs.ShortestPath(""))
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	return prog
}

// TestClusterSeedsOnce: a second Run seeds no fact again, so deleting
// links a↔c and c↔b afterwards leaves the cluster at Central's 12
// shortestPath rows — not at a fixpoint where each link still counts
// once more and survives its deletion.
func TestClusterSeedsOnce(t *testing.T) {
	sim, cl := figure2Cluster(t, Options{AggSel: true}, ClusterConfig{ProcDelay: 0.001})
	runCluster(t, cl)
	runCluster(t, cl)
	c, err := NewCentral(figure2Program(t), Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadFacts()
	for _, l := range [][2]string{{"a", "c"}, {"c", "a"}, {"c", "b"}, {"b", "c"}} {
		link := programs.LinkFact("link", l[0], l[1], 1)
		if err := cl.Inject(l[0], Deletion(link)); err != nil {
			t.Fatal(err)
		}
		c.Delete(link)
	}
	if !sim.RunToQuiescence(5_000_000) {
		t.Fatal("cluster did not quiesce")
	}
	got, want := cl.QueryResults(), c.QueryResults()
	if len(want) != 12 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("after deleting a↔c and c↔b the cluster holds %d shortestPath rows %v, want Central's %d %v", len(got), got, len(want), want)
	}
}

func runCluster(t *testing.T, cl *Cluster) {
	t.Helper()
	ok, err := cl.Run(5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cluster did not quiesce")
	}
}

func TestClusterShortestPathFigure2(t *testing.T) {
	for _, aggsel := range []bool{false, true} {
		for _, mode := range []Mode{PSN, SN} {
			sim, cl := figure2Cluster(t, Options{Mode: mode, AggSel: aggsel},
				ClusterConfig{ProcDelay: 0.001})
			runCluster(t, cl)
			label := fmt.Sprintf("mode=%v aggsel=%v", mode, aggsel)
			checkCosts(t, spCosts(cl.QueryResults()), floyd(figure2), label)
			if cl.Undeliverable() != 0 {
				t.Errorf("%s: %d undeliverable messages", label, cl.Undeliverable())
			}
			if sim.Messages() == 0 {
				t.Errorf("%s: no messages exchanged", label)
			}
			// Results must live at their location specifiers.
			for _, id := range cl.Nodes() {
				for _, tp := range cl.Node(simnet.NodeID(id)).Tuples("shortestPath") {
					if tp.Loc() != id {
						t.Errorf("%s: tuple %v stored at %s", label, tp, id)
					}
				}
			}
		}
	}
}

func TestClusterAggSelReducesTraffic(t *testing.T) {
	run := func(aggsel bool) int64 {
		sim, cl := figure2Cluster(t, Options{AggSel: aggsel}, ClusterConfig{})
		ok, err := cl.Run(5_000_000)
		if err != nil || !ok {
			t.Fatalf("run: ok=%v err=%v", ok, err)
		}
		return sim.Bytes()
	}
	with, without := run(true), run(false)
	if with >= without {
		t.Errorf("aggsel bytes = %d, without = %d; expected reduction", with, without)
	}
}

func TestClusterPeriodicAggSel(t *testing.T) {
	_, cl := figure2Cluster(t, Options{AggSel: true},
		ClusterConfig{ProcDelay: 0.001, AggSelPeriod: 0.050})
	runCluster(t, cl)
	checkCosts(t, spCosts(cl.QueryResults()), floyd(figure2), "periodic")

	// Two selections over two source predicates at one node: a flush
	// advertises them in predicate-name order whatever order they became
	// pending in (a map-ordered walk flips about every other run). a2
	// and b2 extend a path vector (a0, b0) by a step, so the planner
	// proves the pruning safe.
	prog := mustParse(t, `
materialize(pa, infinity, infinity, keys(1,2,3)).
materialize(pb, infinity, infinity, keys(1,2,3)).
materialize(bestA, infinity, infinity, keys(1,2)).
materialize(bestB, infinity, infinity, keys(1,2)).
materialize(advA, infinity, infinity, keys(1,2,3)).
materialize(advB, infinity, infinity, keys(1,2,3)).
a0 pa(@N,G,P,C) :- hop(@N,G,C), P := f_concatPath(N, [G]).
a1 bestA(@N,G,min<C>) :- pa(@N,G,_P,C).
a2 advA(@N,G,P,C2) :- pa(@N,G,P,C), step(@N,K), C2 := C + K.
b0 pb(@N,G,P,C) :- hop(@N,G,C), P := f_concatPath(N, [G]).
b1 bestB(@N,G,min<C>) :- pb(@N,G,_P,C).
b2 advB(@N,G,P,C2) :- pb(@N,G,P,C), step(@N,K), C2 := C + K.
`)
	for i := 0; i < 64; i++ {
		n, err := NewNode("n", prog, Options{AggSel: true})
		if err != nil {
			t.Fatal(err)
		}
		n.periodic = true
		n.Push(Insert(val.NewTuple("step", val.NewAddr("n"), val.NewInt(0))))
		for _, pred := range []string{"pb", "pa"} {
			n.Push(Insert(val.NewTuple(pred, val.NewAddr("n"), val.NewInt(7), val.NewString("x"), val.NewInt(1))))
		}
		n.Drain()
		if n.PendingGroups() != 2 || n.QueueLen() != 0 {
			t.Fatalf("after drain: %d pending groups, %d queued; want 2, 0", n.PendingGroups(), n.QueueLen())
		}
		n.FlushPending()
		var got []string
		for _, d := range n.queue.buf[n.queue.head:] {
			got = append(got, d.Tuple.Pred)
		}
		if fmt.Sprint(got) != "[advA advB]" {
			t.Fatalf("flush %d queued %v, want [advA advB]", i+1, got)
		}
	}
}

func TestClusterMatchesCentral(t *testing.T) {
	// Theorem 4's practical reading: the distributed PSN fixpoint equals
	// the centralized one.
	c := central(t, programs.ShortestPath(""), Options{})
	insertLinks(c, figure2)
	_, cl := figure2Cluster(t, Options{}, ClusterConfig{})
	runCluster(t, cl)

	want := c.QueryResults()
	got := cl.QueryResults()
	if len(got) != len(want) {
		t.Fatalf("cluster %d results, central %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("result %d: cluster %v, central %v", i, got[i], want[i])
		}
	}
}

func TestClusterLinkUpdateMidRun(t *testing.T) {
	// Figure 13's mechanism: inject a link cost update after convergence;
	// incremental maintenance must land on the from-scratch answer.
	sim, cl := figure2Cluster(t, Options{AggSel: true}, ClusterConfig{ProcDelay: 0.001})
	if err := cl.Seed(); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleFunc(10, func(now float64) {
		// link(a,b): 5 -> 1, both directions, at both endpoints.
		cl.Inject("a", Insert(programs.LinkFact("link", "a", "b", 1)))
		cl.Inject("b", Insert(programs.LinkFact("link", "b", "a", 1)))
	})
	if !sim.RunToQuiescence(5_000_000) {
		t.Fatal("did not quiesce")
	}
	updated := append([]struct {
		a, b string
		cost float64
	}(nil), figure2...)
	updated[0].cost = 1
	checkCosts(t, spCosts(cl.QueryResults()), floyd(updated), "after update")
}

func TestClusterLinkDeleteMidRun(t *testing.T) {
	sim, cl := figure2Cluster(t, Options{AggSel: true}, ClusterConfig{ProcDelay: 0.001})
	if err := cl.Seed(); err != nil {
		t.Fatal(err)
	}
	sim.ScheduleFunc(10, func(now float64) {
		cl.Inject("b", Deletion(programs.LinkFact("link", "b", "d", 1)))
		cl.Inject("d", Deletion(programs.LinkFact("link", "d", "b", 1)))
	})
	if !sim.RunToQuiescence(5_000_000) {
		t.Fatal("did not quiesce")
	}
	var remaining []struct {
		a, b string
		cost float64
	}
	for _, l := range figure2 {
		if !(l.a == "b" && l.b == "d") {
			remaining = append(remaining, l)
		}
	}
	checkCosts(t, spCosts(cl.QueryResults()), floyd(remaining), "after delete")
}

func TestClusterMagicProgram(t *testing.T) {
	// The top-down magic program, distributed: query e -> d with
	// caching along the reverse path.
	sim := simnet.New(3)
	prog := mustParse(t, programs.MagicShortestPath())
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	prog.Facts = append(prog.Facts, programs.MagicSrcFact("e"), programs.MagicDstFact("d"))
	cl, err := NewCluster(sim, prog, Options{AggSel: true}, ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []simnet.NodeID{"a", "b", "c", "d", "e"} {
		cl.AddNode(id)
	}
	for _, l := range figure2 {
		sim.AddLink(simnet.NodeID(l.a), simnet.NodeID(l.b), 0.010, 0)
	}
	runCluster(t, cl)

	// The answer must arrive at source e with cost 4.
	var found bool
	for _, a := range cl.Node("e").Tuples("answer") {
		if a.Fields[0].Addr() == "e" && a.Fields[2].Addr() == "d" && a.Fields[4].Float() == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("no answer at e: %v", cl.Node("e").Tuples("answer"))
	}
	// Cache populated along the reverse shortest path e-a-c-b-d.
	for _, nc := range []struct {
		node string
		cost float64
	}{{"a", 3}, {"c", 2}, {"b", 1}} {
		ok := false
		for _, tp := range cl.Node(simnet.NodeID(nc.node)).Tuples("cache") {
			if tp.Fields[1].Addr() == "d" && tp.Fields[2].Float() == nc.cost {
				ok = true
			}
		}
		if !ok {
			t.Errorf("node %s missing cache(d)=%v: %v", nc.node, nc.cost,
				cl.Node(simnet.NodeID(nc.node)).Tuples("cache"))
		}
	}
}

func TestShareEncodeDecodeRoundTrip(t *testing.T) {
	sc := &ShareConfig{
		Delay: 0.3,
		Group: map[string]string{"path_lat": "path", "path_rel": "path"},
		VaryCols: map[string][]int{
			"path_lat": {4},
			"path_rel": {4},
		},
	}
	pv := val.NewList(val.NewAddr("a"), val.NewAddr("b"), val.NewAddr("d"))
	mk := func(pred string, cost float64) val.Tuple {
		return val.NewTuple(pred,
			val.NewAddr("a"), val.NewAddr("d"), val.NewAddr("b"), pv, val.NewFloat(cost))
	}
	ds := []Delta{
		Insert(mk("path_lat", 6)),
		Insert(mk("path_rel", 2.5)),
		Deletion(mk("path_lat", 9)),
		Insert(val.NewTuple("other", val.NewAddr("a"), val.NewInt(1))),
	}
	enc := EncodeShared(sc, ds)
	got, err := DecodeMessageInto(enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("decoded %d deltas, want %d", len(got), len(ds))
	}
	want := map[string]int8{}
	for _, d := range ds {
		want[d.Tuple.Key()] = d.Sign
	}
	for _, d := range got {
		sign, ok := want[d.Tuple.Key()]
		if !ok || sign != d.Sign {
			t.Errorf("unexpected decoded delta %v", d)
		}
	}
	// Sharing must beat plain encoding for combinable tuples.
	plain := AppendDeltas(nil, ds)
	if len(enc) >= len(plain) {
		t.Errorf("shared %d bytes >= plain %d bytes", len(enc), len(plain))
	}
	// Round-trip through DecodeMessage as well.
	if _, err := DecodeMessageInto(enc, nil, nil); err != nil {
		t.Errorf("DecodeMessageInto(shared): %v", err)
	}
	if _, err := DecodeMessageInto(plain, nil, nil); err != nil {
		t.Errorf("DecodeMessageInto(plain): %v", err)
	}
	if _, err := DecodeMessageInto(nil, nil, nil); err == nil {
		t.Error("DecodeMessageInto(nil) should fail")
	}
	if _, err := DecodeMessageInto([]byte{9}, nil, nil); err == nil {
		t.Error("DecodeMessageInto(unknown kind) should fail")
	}
}

func TestDeltaEncodeDecode(t *testing.T) {
	ds := []Delta{
		Insert(val.NewTuple("p", val.NewAddr("a"), val.NewInt(1))),
		Deletion(val.NewTuple("q", val.NewAddr("b"), val.NewFloat(2.5))),
	}
	enc := AppendDeltas(nil, ds)
	got, err := DecodeDeltasInto(enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ds {
		if got[i].Sign != ds[i].Sign || !got[i].Tuple.Equal(ds[i].Tuple) {
			t.Errorf("delta %d: %v != %v", i, got[i], ds[i])
		}
	}
	if ds[0].String() != "+p(a,1)" || ds[1].String() != "-q(b,2.5)" {
		t.Errorf("String() = %q, %q", ds[0], ds[1])
	}
	for _, bad := range [][]byte{nil, {1}, {1, 1, 1}, {2}} {
		if _, err := DecodeDeltasInto(bad, nil, nil); err == nil {
			t.Errorf("DecodeDeltasInto(%v) should fail", bad)
		}
	}
}

func TestClusterSharingReducesBytes(t *testing.T) {
	// Two metric variants of the shortest-path program running together;
	// sharing combines their coinciding path advertisements.
	build := func(cfg ClusterConfig) (*simnet.Sim, *Cluster) {
		sim := simnet.New(1)
		src := programs.Combine(programs.ShortestPath("_lat"), programs.ShortestPath("_rel"))
		prog := mustParse(t, src)
		for _, l := range figure2 {
			for _, sfx := range []string{"_lat", "_rel"} {
				prog.Facts = append(prog.Facts,
					programs.LinkFact("link"+sfx, l.a, l.b, l.cost),
					programs.LinkFact("link"+sfx, l.b, l.a, l.cost))
			}
		}
		cl, err := NewCluster(sim, prog, Options{AggSel: true}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []simnet.NodeID{"a", "b", "c", "d", "e"} {
			cl.AddNode(id)
		}
		for _, l := range figure2 {
			sim.AddLink(simnet.NodeID(l.a), simnet.NodeID(l.b), 0.010, 0)
		}
		return sim, cl
	}
	share := &ShareConfig{
		Delay: 0.050,
		Group: map[string]string{"path_lat": "path", "path_rel": "path"},
		VaryCols: map[string][]int{
			"path_lat": {4},
			"path_rel": {4},
		},
	}
	simShare, clShare := build(ClusterConfig{Share: share})
	runCluster(t, clShare)
	simPlain, clPlain := build(ClusterConfig{Batch: 0.050})
	runCluster(t, clPlain)

	// Same answers either way.
	for _, sfx := range []string{"_lat", "_rel"} {
		a := spCosts(clShare.Tuples("shortestPath" + sfx))
		b := spCosts(clPlain.Tuples("shortestPath" + sfx))
		checkCosts(t, a, b, "share vs plain"+sfx)
		checkCosts(t, a, floyd(figure2), "share vs oracle"+sfx)
	}
	if simShare.Bytes() >= simPlain.Bytes() {
		t.Errorf("share bytes = %d >= batch-only bytes = %d", simShare.Bytes(), simPlain.Bytes())
	}
}
