package netrun

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/experiments"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
)

var fullSoak = flag.Bool("netrun.full", false, "run the soaks at full scale: 200 inject bursts instead of 20, and the 52- and 100-node cold-start storms five times each")

// dvMetric is the cost metric of every distance-vector test overlay.
const dvMetric = topology.Random

// dvOverlay builds a transit-stub overlay: transits + transits×stubs×
// perStub nodes (2,3,3 is the 20-node overlay of the UDP benchmark).
func dvOverlay(transits, stubs, perStub int, seed int64) *topology.Overlay {
	cfg := experiments.Default()
	cfg.Topology.Transits, cfg.Topology.StubsPerTrans, cfg.Topology.NodesPerStub = transits, stubs, perStub
	cfg.Seed = seed
	return experiments.BuildOverlay(cfg)
}

// dvRunner binds one runner hosting every node of o on the
// distance-vector program; with asFacts the overlay's links are program
// facts, which Start seeds.
func dvRunner(t *testing.T, o *topology.Overlay, asFacts bool) *Runner {
	t.Helper()
	prog, err := parser.Parse(programs.ShortestPathDV(""))
	if err != nil {
		t.Fatal(err)
	}
	if asFacts {
		for _, l := range o.Links {
			prog.Facts = append(prog.Facts,
				programs.LinkFact("link", string(l.A), string(l.B), l.Cost[dvMetric]),
				programs.LinkFact("link", string(l.B), string(l.A), l.Cost[dvMetric]))
		}
	}
	ids := make([]string, len(o.Nodes))
	for i, id := range o.Nodes {
		ids[i] = string(id)
	}
	r, err := New(prog, ids, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// dijkstraMisses counts the ordered (src,dst) pairs whose cheapest
// shortestPath row is not Dijkstra's cost on o's current link costs.
func dijkstraMisses(r *Runner, o *topology.Overlay) int {
	type pair struct{ s, d string }
	best := map[pair]float64{}
	for _, tp := range r.TupleValues("shortestPath") {
		k := pair{tp.Fields[0].Addr(), tp.Fields[1].Addr()}
		cost := tp.Fields[len(tp.Fields)-1].Float()
		if cur, ok := best[k]; !ok || cost < cur {
			best[k] = cost
		}
	}
	wrong := 0
	for _, s := range o.Nodes {
		dist, _ := o.ShortestPaths(s, dvMetric)
		for d, want := range dist {
			if d == s {
				continue
			}
			if got, ok := best[pair{string(s), string(d)}]; !ok || math.Abs(got-want) > 1e-6 {
				wrong++
			}
		}
	}
	return wrong
}

// TestInjectBurstKeepsLinkOrder is the regression test for per-link send
// order: ten link-cost updates injected back to back, under durability
// (the fsync sits between a drain and its datagrams), while the previous
// updates' traffic is still in flight. Each cost update replaces a row by
// key, so if a later drain's datagrams overtook an earlier drain's on
// one link, a neighbour would end up holding the stale cost and
// distance-vector routing would settle on a wrong minimum. Every burst
// must end in Dijkstra's fixpoint for the costs last injected.
func TestInjectBurstKeepsLinkOrder(t *testing.T) {
	bursts := 20
	if *fullSoak {
		bursts = 200
	}
	const injectsPerBurst = 10

	overlay := dvOverlay(2, 3, 3, 1)
	r := dvRunner(t, overlay, false)
	defer r.Close()
	if _, err := r.EnableDurability(t.TempDir(), durable.Options{}); err != nil {
		t.Fatal(err)
	}
	r.Start()
	inject := func(a, b string, cost float64) {
		t.Helper()
		if err := r.Inject(a, engine.Insert(programs.LinkFact("link", a, b, cost))); err != nil {
			t.Fatal(err)
		}
	}
	for _, l := range overlay.Links {
		inject(string(l.A), string(l.B), l.Cost[dvMetric])
		inject(string(l.B), string(l.A), l.Cost[dvMetric])
	}
	check := func(when string) {
		t.Helper()
		if !r.WaitQuiescent(100*time.Millisecond, 30*time.Second) {
			t.Fatal("runner did not go idle")
		}
		if wrong := dijkstraMisses(r, overlay); wrong > 0 {
			st := r.Stats()
			t.Fatalf("%s: %d (src,dst) pairs are not at Dijkstra's cost (%+v)", when, wrong, st)
		}
	}
	check("cold start")

	rng := rand.New(rand.NewSource(1))
	for b := 0; b < bursts; b++ {
		for i := 0; i < injectsPerBurst/2; i++ {
			// One link-cost change is two injects, one per endpoint. Hitting
			// the same few links again and again is what makes a reorder
			// bite: consecutive drains at one node then carry different costs
			// for the same key.
			l := overlay.Links[rng.Intn(4)]
			live, _ := overlay.Link(l.A, l.B)
			live.Cost[dvMetric] *= 0.9 + 0.2*rng.Float64()
			inject(string(l.A), string(l.B), live.Cost[dvMetric])
			inject(string(l.B), string(l.A), live.Cost[dvMetric])
		}
		check(fmt.Sprintf("burst %d", b))
	}
}

// TestLossIsRepaired: a 20-node cold start whose first five datagrams
// never reach the wire is Dijkstra-exact on the first quiescence — the
// retransmissions repair the loss, and the credit does not reach zero
// before they have.
func TestLossIsRepaired(t *testing.T) {
	overlay := dvOverlay(2, 3, 3, 1)
	r := dvRunner(t, overlay, true)
	defer r.Close()
	r.InjectLoss(5)
	r.Start()
	if !r.WaitQuiescent(100*time.Millisecond, 30*time.Second) {
		t.Fatal("runner did not go idle")
	}
	st := r.Stats()
	if wrong := dijkstraMisses(r, overlay); wrong > 0 {
		t.Fatalf("%d (src,dst) pairs are not at Dijkstra's cost after loss (%+v)", wrong, st)
	}
	if st.Retransmits < 5 {
		t.Errorf("five datagrams lost but %d retransmitted", st.Retransmits)
	}
}

// TestColdStartStorm: distance-vector cold starts large enough that
// loopback drops datagrams from overflowing socket buffers end at
// Dijkstra's fixpoint with no reseed. Tier-1 runs 26 nodes once;
// -netrun.full adds 52 and 100 nodes, five cold starts each.
func TestColdStartStorm(t *testing.T) {
	type storm struct{ transits, stubs, perStub, runs int }
	storms := []storm{{2, 3, 4, 1}}
	if *fullSoak {
		storms = append(storms, storm{4, 3, 4, 5}, storm{4, 3, 8, 5})
	}
	for _, s := range storms {
		for run := 0; run < s.runs; run++ {
			overlay := dvOverlay(s.transits, s.stubs, s.perStub, int64(run+1))
			r := dvRunner(t, overlay, true)
			r.Start()
			ok := r.WaitQuiescent(100*time.Millisecond, 120*time.Second)
			st := r.Stats()
			wrong := dijkstraMisses(r, overlay)
			r.Close()
			if !ok {
				t.Fatalf("%d nodes, run %d: not quiescent (%+v)", len(overlay.Nodes), run, st)
			}
			if wrong > 0 {
				t.Fatalf("%d nodes, run %d: %d (src,dst) pairs are not at Dijkstra's cost (%+v)",
					len(overlay.Nodes), run, wrong, st)
			}
			t.Logf("%d nodes, run %d: %d datagrams, %d retransmitted, %d duplicates, %d reordered",
				len(overlay.Nodes), run, st.SentMessages, st.Retransmits, st.Duplicates, st.Reordered)
		}
	}
}

// TestQuiescenceIsExact: WaitQuiescent returns at the fixpoint, not
// before it. Over twenty cold starts, the moment it returns nothing is
// outstanding, nothing moves for the next 50 ms, and the tables are at
// Dijkstra's fixpoint.
func TestQuiescenceIsExact(t *testing.T) {
	overlay := dvOverlay(2, 3, 3, 2)
	for run := 0; run < 20; run++ {
		r := dvRunner(t, overlay, true)
		r.Start()
		if !r.WaitQuiescent(100*time.Millisecond, 30*time.Second) {
			r.Close()
			t.Fatalf("run %d: runner did not go idle", run)
		}
		st, act := r.Stats(), r.Activity()
		time.Sleep(50 * time.Millisecond)
		moved := r.Activity() - act
		wrong := dijkstraMisses(r, overlay)
		r.Close()
		if st.Outstanding != 0 {
			t.Fatalf("run %d: quiescent with %d outstanding (%+v)", run, st.Outstanding, st)
		}
		if moved != 0 {
			t.Fatalf("run %d: activity moved %d times after quiescence", run, moved)
		}
		if wrong > 0 {
			t.Fatalf("run %d: %d (src,dst) pairs are not at Dijkstra's cost", run, wrong)
		}
	}
}
