package conform

import "testing"

// awaitClean advances time in one-second steps until check returns no
// violations, failing at the deadline.
func awaitClean(t *testing.T, g *graphRun, deadline float64, label string, check func() []string) {
	t.Helper()
	for {
		errs := check()
		if len(errs) == 0 {
			return
		}
		if g.Net.Sim.Now() >= deadline {
			for _, e := range errs {
				t.Errorf("%s: %s", label, e)
			}
			t.Fatalf("%s never converged by t=%.1f (%d violations)",
				label, g.Net.Sim.Now(), len(errs))
		}
		g.RunUntil(g.Net.Sim.Now() + 1)
	}
}

// churnEpisodes drives the shared churn pattern over a graphRun:
// alternating cost changes and chord fail/heal pairs (ring edges stay
// up so the graph remains connected), calling settle after each.
func churnEpisodes(g *graphRun, episodes int, maxCost int64, settle func()) {
	var downA, downB string
	for i := 0; i < episodes; i++ {
		switch {
		case downA != "":
			g.HealEdge(downA, downB, 1+g.Net.Rng.Int63n(maxCost))
			downA, downB = "", ""
		case i%2 == 0:
			a, b := g.RandomEdge()
			g.SetCost(a, b, 1+g.Net.Rng.Int63n(maxCost))
		default:
			for {
				a, b := g.RandomEdge()
				if !g.RingEdge(a, b) {
					g.FailEdge(a, b)
					downA, downB = a, b
					break
				}
			}
		}
		g.RunUntil(g.Net.Sim.Now() + 5)
		settle()
	}
}

// TestPathVectorConformance soaks the distance-vector program: every
// node's shortestPath table must match the Dijkstra oracle — cost and
// a live, correctly-summing path vector — after convergence and after
// each churn episode's retraction wave.
func TestPathVectorConformance(t *testing.T) {
	o := DefaultPathVectorOpts(21)
	episodes := 4
	if !*fullSoak {
		o.Nodes, o.Chords = 10, 4
		episodes = 2
	}
	r, err := NewPathVectorRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(5)
	awaitClean(t, r.graphRun, 20, "path-vector", r.CheckPaths)
	t.Logf("initial paths converged by t=%.1f", r.Net.Sim.Now())

	churnEpisodes(r.graphRun, episodes, o.MaxCost, func() {
		awaitClean(t, r.graphRun, r.Net.Sim.Now()+20, "path-vector", r.CheckPaths)
	})
	t.Logf("%d churn episodes re-converged by t=%.1f", episodes, r.Net.Sim.Now())
}

// TestMulticastConformance soaks the multicast tree over distance-
// vector routing: members' parent chains must follow shortest-path
// edges to the root and child state must mirror parent state, across
// churn that moves the shortest paths out from under the tree.
func TestMulticastConformance(t *testing.T) {
	o := DefaultMulticastOpts(33)
	episodes := 4
	if !*fullSoak {
		o.Nodes, o.Chords, o.Members = 12, 4, 4
		episodes = 2
	}
	r, err := NewMulticastRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(5)
	awaitClean(t, r.graphRun, 20, "multicast", r.CheckTree)
	t.Logf("tree of %d members built by t=%.1f", len(r.Members), r.Net.Sim.Now())

	churnEpisodes(r.graphRun, episodes, o.MaxCost, func() {
		awaitClean(t, r.graphRun, r.Net.Sim.Now()+20, "multicast", r.CheckTree)
	})
	t.Logf("%d churn episodes re-converged by t=%.1f", episodes, r.Net.Sim.Now())
}

// TestDSRConformance soaks cached source routing: each episode issues
// a fresh query (the later ones answerable from warmed caches via
// hit1) and re-checks every query issued so far — after churn the old
// answers' support has been retracted and the best answer must match
// the new oracle.
func TestDSRConformance(t *testing.T) {
	o := DefaultDSROpts(55)
	episodes := 3
	if !*fullSoak {
		episodes = 2
	}
	r, err := NewDSRRun(o)
	if err != nil {
		t.Fatal(err)
	}
	far := len(r.Names) / 2
	r.Query(r.Names[0], r.Names[far])
	r.RunUntil(5)
	awaitClean(t, r.graphRun, 20, "dsr", r.CheckAnswers)
	t.Logf("first query answered by t=%.1f", r.Net.Sim.Now())

	next := 1
	churnEpisodes(r.graphRun, episodes, o.MaxCost, func() {
		r.Query(r.Names[next], r.Names[(next+far)%len(r.Names)])
		next++
		r.RunUntil(r.Net.Sim.Now() + 5)
		awaitClean(t, r.graphRun, r.Net.Sim.Now()+20, "dsr", r.CheckAnswers)
	})
	t.Logf("%d churn episodes re-converged by t=%.1f", episodes, r.Net.Sim.Now())
}
