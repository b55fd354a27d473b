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

var fullSoak = flag.Bool("netrun.full", false, "run the inject-burst ordering soak at 200 bursts instead of 20")

// TestInjectBurstKeepsLinkOrder is the regression test for per-link send
// order: ten link-cost updates injected back to back, under durability
// (the fsync sits between a drain and its datagrams), while the previous
// updates' traffic is still in flight. Each cost update replaces a row by
// key, so if a later drain's datagrams overtake an earlier drain's on one
// link, a neighbour ends up holding the stale cost and distance-vector
// routing settles on a wrong minimum with no datagram lost. Every burst
// must end in Dijkstra's fixpoint for the costs last injected.
//
// Before drains handed the node lock over to a send lock, about one burst
// in four went wrong.
func TestInjectBurstKeepsLinkOrder(t *testing.T) {
	bursts := 20
	if *fullSoak {
		bursts = 200
	}
	const injectsPerBurst = 10

	// The 20-node overlay: the largest whose cold start loses no datagram
	// over loopback on a 2-core box (bench/README.md).
	cfg := experiments.Default()
	cfg.Topology.Transits, cfg.Topology.StubsPerTrans, cfg.Topology.NodesPerStub = 2, 3, 3
	overlay := experiments.BuildOverlay(cfg)
	const metric = topology.Random

	prog, err := parser.Parse(programs.ShortestPathDV(""))
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(overlay.Nodes))
	for i, id := range overlay.Nodes {
		ids[i] = string(id)
	}
	r, err := New(prog, ids, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
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
		inject(string(l.A), string(l.B), l.Cost[metric])
		inject(string(l.B), string(l.A), l.Cost[metric])
	}
	settle := func() {
		t.Helper()
		if !r.WaitQuiescent(100*time.Millisecond, 30*time.Second) {
			t.Fatal("runner did not go idle")
		}
	}
	// check compares, for every ordered pair, the cheapest shortestPath
	// row against Dijkstra on the overlay's current costs.
	check := func(when string) {
		t.Helper()
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
		for _, s := range overlay.Nodes {
			dist, _ := overlay.ShortestPaths(s, metric)
			for d, want := range dist {
				if d == s {
					continue
				}
				if got, ok := best[pair{string(s), string(d)}]; !ok || math.Abs(got-want) > 1e-6 {
					wrong++
				}
			}
		}
		if wrong > 0 {
			st := r.Stats()
			t.Fatalf("%s: %d (src,dst) pairs are not at Dijkstra's cost (datagrams sent %d, received %d)",
				when, wrong, st.SentMessages, st.RecvMessages)
		}
	}
	settle()
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
			live.Cost[metric] *= 0.9 + 0.2*rng.Float64()
			inject(string(l.A), string(l.B), live.Cost[metric])
			inject(string(l.B), string(l.A), live.Cost[metric])
		}
		settle()
		check(fmt.Sprintf("burst %d", b))
	}
}
