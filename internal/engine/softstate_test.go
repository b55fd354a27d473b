package engine

import (
	"slices"
	"testing"

	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// TestSoftStateExpiry exercises the soft-state storage model of
// Section 4.2: derived tuples with a TTL die unless re-derived, and
// their deletions propagate.
func TestSoftStateExpiry(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(hop, 5, infinity, keys(1,2)).
r1 hop(@S,@D) :- link(@S,@D,C).
r2 twoHop(@S,@D) :- hop(@S,@D).
`
	c := central(t, src, Options{})
	c.Insert(programs.LinkFact("link", "a", "b", 1))
	if len(c.Tuples("hop")) != 1 || len(c.Tuples("twoHop")) != 1 {
		t.Fatalf("initial state wrong: hop=%v twoHop=%v", c.Tuples("hop"), c.Tuples("twoHop"))
	}
	// Advance the virtual clock past the TTL and expire.
	c.Node().SetNow(10)
	c.Node().ExpireSoftState()
	c.Fixpoint()
	if len(c.Tuples("hop")) != 0 {
		t.Errorf("hop should have expired: %v", c.Tuples("hop"))
	}
	if len(c.Tuples("twoHop")) != 0 {
		t.Errorf("expiry must propagate to twoHop: %v", c.Tuples("twoHop"))
	}
	// link is hard state: a duplicate insert bumps the derivation count
	// and re-derives nothing.
	c.Node().Push(Insert(programs.LinkFact("link", "a", "b", 1)))
	c.Fixpoint()
	if len(c.Tuples("hop")) != 0 {
		t.Fatalf("duplicate hard-state insert must not re-derive: %v", c.Tuples("hop"))
	}
	// The duplicate above took link's count to 2: two deletions are
	// needed to retract it (count algorithm), after which a fresh insert
	// re-derives the soft state.
	c.Delete(programs.LinkFact("link", "a", "b", 1))
	c.Delete(programs.LinkFact("link", "a", "b", 1))
	c.Insert(programs.LinkFact("link", "a", "b", 1))
	if len(c.Tuples("hop")) != 1 || len(c.Tuples("twoHop")) != 1 {
		t.Errorf("refresh did not re-derive: hop=%v twoHop=%v", c.Tuples("hop"), c.Tuples("twoHop"))
	}
}

// TestSoftStateRefreshKeepsAlive verifies that periodic re-derivation
// refreshes the TTL (re-insertion semantics).
func TestSoftStateRefreshKeepsAlive(t *testing.T) {
	src := `
materialize(beacon, 5, infinity, keys(1,2)).
`
	c := central(t, src, Options{})
	b := val.NewTuple("beacon", val.NewAddr("a"), val.NewInt(1))
	c.Node().SetNow(0)
	c.Insert(b)
	c.Node().SetNow(4)
	c.Insert(b) // refresh at t=4: now expires at t=9
	c.Node().SetNow(8)
	c.Node().ExpireSoftState()
	c.Fixpoint()
	if len(c.Tuples("beacon")) != 1 {
		t.Fatal("refreshed beacon should survive t=8")
	}
	c.Node().SetNow(10)
	c.Node().ExpireSoftState()
	c.Fixpoint()
	if len(c.Tuples("beacon")) != 0 {
		t.Fatal("beacon should die at t=10")
	}
}

// TestClusterSoftStateSweep drives cluster-wide expiry through the
// simulator clock.
func TestClusterSoftStateSweep(t *testing.T) {
	sim := simnet.New(1)
	prog := mustParse(t, `
materialize(link, infinity, infinity, keys(1,2)).
materialize(flood, 2, infinity, keys(1,2)).
f1 flood(@D,@S) :- #link(@S,@D,C).
`)
	prog.Facts = append(prog.Facts,
		programs.LinkFact("link", "a", "b", 1),
		programs.LinkFact("link", "b", "a", 1))
	cl, err := NewCluster(sim, prog, Options{}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl.AddNode("a")
	cl.AddNode("b")
	sim.AddLink("a", "b", 0.01, 0)
	if ok, err := cl.Run(100000); err != nil || !ok {
		t.Fatalf("run: %v %v", ok, err)
	}
	if len(cl.Tuples("flood")) != 2 {
		t.Fatalf("flood = %v", cl.Tuples("flood"))
	}
	sim.ScheduleFunc(10, func(now float64) { cl.ExpireAll() })
	sim.RunToQuiescence(100000)
	if len(cl.Tuples("flood")) != 0 {
		t.Errorf("flood should expire cluster-wide: %v", cl.Tuples("flood"))
	}
}

// TestLossySoftStateEventualConsistency is the Section 4.2 story: on
// lossy links, one-shot hard-state propagation can lose tuples forever,
// but soft state with periodic re-insertion (a routing protocol's
// "hello" refresh) eventually delivers everything: each refresh of a
// soft-state base tuple re-advertises it, refreshing downstream soft
// state or filling holes left by lost messages.
func TestLossySoftStateEventualConsistency(t *testing.T) {
	sim := simnet.New(99)
	prog := mustParse(t, `
materialize(link, 100, infinity, keys(1,2)).
materialize(view, 100, infinity, keys(1,2)).
v1 view(@D,@S) :- #link(@S,@D,C).
`)
	cl, err := NewCluster(sim, prog, Options{}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []simnet.NodeID{"a", "b", "c"} {
		cl.AddNode(id)
	}
	sim.AddLink("a", "b", 0.01, 0.7)
	sim.AddLink("b", "c", 0.01, 0.7)

	refresh := func() {
		for _, l := range [][2]string{{"a", "b"}, {"b", "a"}, {"b", "c"}, {"c", "b"}} {
			cl.Inject(l[0], Insert(programs.LinkFact("link", l[0], l[1], 1)))
		}
	}
	var rounds int
	var loop func(now float64)
	loop = func(now float64) {
		refresh()
		rounds++
		if len(cl.Tuples("view")) < 4 && rounds < 200 {
			sim.ScheduleFunc(1, loop)
		}
	}
	sim.ScheduleFunc(0.001, loop)
	if !sim.RunToQuiescence(10_000_000) {
		t.Fatal("did not quiesce")
	}
	if got := len(cl.Tuples("view")); got != 4 {
		t.Fatalf("view incomplete after %d refresh rounds: %d/4", rounds, got)
	}
	if sim.Dropped() == 0 {
		t.Error("expected losses on a 70% lossy link")
	}
	if rounds < 2 {
		t.Errorf("expected several refresh rounds under loss, got %d", rounds)
	}
}

// TestExpirySweepRetractsInStampOrder: rows that lapse in one sweep are
// retracted in the order they were stored, whatever order the row map
// yields them in — a sweep's output is a function of the node's history.
func TestExpirySweepRetractsInStampOrder(t *testing.T) {
	src := `
materialize(beacon, 5, infinity, keys(1,2)).
materialize(seen, 5, infinity, keys(1,2)).
r1 seen(@S,N) :- beacon(@S,N).
`
	var retracted []int64
	c := central(t, src, Options{OnStore: func(nodeID string, d Delta, now float64) {
		if d.Sign < 0 && d.Tuple.Pred == "beacon" {
			retracted = append(retracted, d.Tuple.Fields[1].Int())
		}
	}})
	c.Node().SetNow(0)
	arrival := []int64{41, 7, 23, 99, 3, 58, 12, 86, 64, 30, 75, 19}
	for _, n := range arrival {
		c.Insert(val.NewTuple("beacon", val.NewAddr("a"), val.NewInt(n)))
	}
	c.Node().SetNow(4)
	c.Node().ExpireSoftState() // nothing due: bound is t=5
	if len(retracted) != 0 {
		t.Fatalf("sweep before any expiry retracted %v", retracted)
	}
	c.Node().SetNow(6)
	c.Node().ExpireSoftState()
	c.Fixpoint()
	if !slices.Equal(retracted, arrival) {
		t.Errorf("retraction order %v, want arrival (stamp) order %v", retracted, arrival)
	}
	if len(c.Tuples("beacon")) != 0 || len(c.Tuples("seen")) != 0 {
		t.Errorf("expiry must empty both tables: beacon=%v seen=%v", c.Tuples("beacon"), c.Tuples("seen"))
	}
}
