package engine

import (
	"reflect"
	"testing"

	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// TestCycleCannotStretchLifetime: a and b derive each other, both soft,
// from a soft base fact that is never refreshed. A derived row's deadline
// is bounded by its support's, so the cycle stops at the first duplicate
// (it extends nothing) and a tick that re-derives a from b every second
// cannot keep either row past the base fact's deadline.
func TestCycleCannotStretchLifetime(t *testing.T) {
	src := `
materialize(base, 5, infinity, keys(1)).
materialize(a, 5, infinity, keys(1)).
materialize(b, 5, infinity, keys(1)).
materialize(tick, 0, infinity, keys(1,2)).
r0 a(@X) :- base(@X).
r1 b(@X) :- a(@X).
r2 a(@X) :- b(@X).
r3 a(@X) :- tick(@X, N), b(@X).
`
	derivations := 0
	c := central(t, src, Options{OnDerive: func(string, string, Delta) {
		if derivations++; derivations > 1000 {
			t.Fatal("the cycle keeps re-deriving itself")
		}
	}})
	x := val.NewAddr("x")
	n := c.Node()
	c.Insert(val.NewTuple("base", x))
	for now := 1.0; now < 5; now++ {
		n.SetNow(now)
		c.Insert(val.NewTuple("tick", x, val.NewInt(int64(now))))
		n.ExpireSoftState()
		c.Fixpoint()
		if len(c.Tuples("a")) != 1 || len(c.Tuples("b")) != 1 {
			t.Fatalf("t=%v: a=%v b=%v, want both alive", now, c.Tuples("a"), c.Tuples("b"))
		}
	}
	for _, pred := range []string{"a", "b"} {
		if e, _ := n.Catalog().Get(pred).Get(val.NewTuple(pred, x)); e.Expires != 5 {
			t.Errorf("%s expires at %v, want the base fact's 5", pred, e.Expires)
		}
	}
	n.SetNow(5)
	n.ExpireSoftState()
	c.Fixpoint()
	if len(c.Tuples("a")) != 0 || len(c.Tuples("b")) != 0 {
		t.Errorf("one sweep past the base fact's deadline: a=%v b=%v, want both gone", c.Tuples("a"), c.Tuples("b"))
	}
}

// TestRefreshExtendingNothingRunsNoStrand: a duplicate that does not move
// its row's deadline re-runs no strand; one that does re-runs them, and
// the row downstream is extended in turn.
func TestRefreshExtendingNothingRunsNoStrand(t *testing.T) {
	src := `
materialize(beacon, 5, infinity, keys(1,2)).
materialize(seen, 5, infinity, keys(1)).
materialize(heard, 5, infinity, keys(1)).
r1 seen(@S) :- beacon(@S, N).
r2 heard(@S) :- seen(@S).
`
	fired := map[string]int{}
	c := central(t, src, Options{OnDerive: func(_, rule string, _ Delta) { fired[rule]++ }})
	n := c.Node()
	a := val.NewAddr("a")
	c.Insert(val.NewTuple("beacon", a, val.NewInt(1)))
	c.Insert(val.NewTuple("beacon", a, val.NewInt(1))) // same clock: extends nothing
	c.Insert(val.NewTuple("beacon", a, val.NewInt(2))) // a second support of seen, same deadline
	if fired["r1"] != 2 || fired["r2"] != 1 {
		t.Fatalf("derivations %v, want r1 2 (one per beacon row) and r2 1", fired)
	}
	n.SetNow(1)
	c.Insert(val.NewTuple("beacon", a, val.NewInt(1))) // extends beacon, seen and heard to 6
	if fired["r1"] != 3 || fired["r2"] != 2 {
		t.Fatalf("derivations %v, want r1 3 and r2 2", fired)
	}
	if e, _ := n.Catalog().Get("heard").Get(val.NewTuple("heard", a)); e.Expires != 6 {
		t.Errorf("heard expires at %v, want 6", e.Expires)
	}
}

// TestDeltaSize pins Delta at 48 bytes: the lifetime lives in the sign's
// padding, so carrying it costs the drain arrays and queues nothing.
func TestDeltaSize(t *testing.T) {
	if got := reflect.TypeOf(Delta{}).Size(); got != 48 {
		t.Errorf("Delta is %d bytes, want 48", got)
	}
}

// expirySrc derives, at b, a row supported by a soft row at a: seen is
// declared with a long lifetime, so only its support's deadline can make
// it lapse early.
const expirySrc = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(beacon, 5, infinity, keys(1,2)).
materialize(seen, 60, infinity, keys(1,2)).
r1 seen(@D, @S) :- beacon(@S, N), #link(@S, @D, C).
`

// sweptPair is a two-node Cluster over expirySrc, a-b latency 0.01, with
// an expiry sweep every half second.
func sweptPair(t *testing.T) (*simnet.Sim, *Cluster) {
	t.Helper()
	sim := simnet.New(1)
	cl, err := NewCluster(sim, mustParse(t, expirySrc), Options{}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cl.AddNode("a")
	cl.AddNode("b")
	if err := sim.AddLink("a", "b", 0.01, 0); err != nil {
		t.Fatal(err)
	}
	var sweep func(float64)
	sweep = func(float64) {
		cl.ExpireAll()
		sim.ScheduleFunc(0.5, sweep)
	}
	sim.ScheduleFunc(0.5, sweep)
	return sim, cl
}

// TestExpirySendsNothing: the sweep that expires a soft row at a sends no
// message, and the row it supported at b lapses on b's own sweep, within
// one sweep period of a's deadline.
func TestExpirySendsNothing(t *testing.T) {
	sim, cl := sweptPair(t)
	a := val.NewAddr("a")
	cl.Inject("a", Insert(programs.LinkFact("link", "a", "b", 1)))
	cl.Inject("a", Insert(val.NewTuple("beacon", a, val.NewInt(1))))
	sim.Run(4.9)
	if got := cl.Tuples("seen"); len(got) != 1 {
		t.Fatalf("seen before the deadline: %v", got)
	}
	sent := sim.Messages()
	sim.Run(5.5)
	if got := cl.Tuples("beacon"); len(got) != 0 {
		t.Fatalf("beacon outlived its TTL: %v", got)
	}
	if got := cl.Tuples("seen"); len(got) != 0 {
		t.Errorf("seen outlived its support by more than a sweep period: %v", got)
	}
	if n := sim.Messages() - sent; n != 0 {
		t.Errorf("the expiry sweeps sent %d messages, want 0", n)
	}
}

// TestLifetimeCrossesWire: a head derived at a from a row with 2 s left
// lapses at b about 2 s later, not at its arrival + seen's 60 s TTL. Run
// on the simnet Cluster, where the lifetime is encoded, and on Parallel,
// where the delta crosses by reference.
func TestLifetimeCrossesWire(t *testing.T) {
	a, b := val.NewAddr("a"), val.NewAddr("b")
	seenExpiry := func(n *Node) float64 {
		e, ok := n.Catalog().Get("seen").Get(val.NewTuple("seen", b, a))
		if !ok {
			t.Fatal("seen was not derived at b")
		}
		return e.Expires
	}
	t.Run("cluster", func(t *testing.T) {
		sim, cl := sweptPair(t)
		cl.Inject("a", Insert(val.NewTuple("beacon", a, val.NewInt(1))))
		sim.ScheduleFunc(3, func(float64) { cl.Inject("a", Insert(programs.LinkFact("link", "a", "b", 1))) })
		sim.Run(4)
		if exp := seenExpiry(cl.Node("b")); exp < 5 || exp > 5.02 {
			t.Errorf("seen at b expires at %v, want about 5 (a's beacon deadline plus transit)", exp)
		}
		sim.Run(5.5)
		if got := cl.Tuples("seen"); len(got) != 0 {
			t.Errorf("seen outlived its support: %v", got)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		p, err := NewParallel(mustParse(t, expirySrc), Options{Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		na, nb := p.AddNode("a"), p.AddNode("b")
		na.SetNow(3)
		nb.SetNow(3)
		p.Inject("a", Delta{Sign: +1, Life: 2, Tuple: val.NewTuple("beacon", a, val.NewInt(1))})
		p.Inject("a", Insert(programs.LinkFact("link", "a", "b", 1)))
		if err := p.Run(); err != nil {
			t.Fatal(err)
		}
		if exp := seenExpiry(nb); exp != 5 {
			t.Errorf("seen at b expires at %v, want 5", exp)
		}
		nb.SetNow(5)
		nb.ExpireSoftState()
		if got := nb.Tuples("seen"); len(got) != 0 {
			t.Errorf("seen outlived its support: %v", got)
		}
	})
}
