package conform

import "testing"

// awaitRoutes advances time in one-second steps until every node's
// lsCost/lsRoute tables match the Dijkstra oracle, failing at the
// deadline.
func awaitRoutes(t *testing.T, r *LinkStateRun, deadline float64) {
	t.Helper()
	for {
		errs := r.CheckRoutes()
		if len(errs) == 0 {
			return
		}
		if r.Net.Sim.Now() >= deadline {
			for _, e := range errs {
				t.Errorf("route conformance: %s", e)
			}
			t.Fatalf("routes never converged by t=%.1f (%d violations)",
				r.Net.Sim.Now(), len(errs))
		}
		r.RunUntil(r.Net.Sim.Now() + 1)
	}
}

// TestLinkStateConformance floods a ring-plus-chords topology, checks
// every node's shortest-path tables against the Dijkstra oracle, then
// re-checks after a seeded sequence of cost changes, chord failures,
// and heals — each episode's retraction wave must re-converge to the
// new oracle.
func TestLinkStateConformance(t *testing.T) {
	o := DefaultLinkStateOpts(11)
	if !*fullSoak {
		o.Nodes, o.Chords = 10, 4
	}
	r, err := NewLinkStateRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(5)
	awaitRoutes(t, r, 20)
	t.Logf("initial routes converged by t=%.1f", r.Net.Sim.Now())

	episodes := 6
	if !*fullSoak {
		episodes = 3
	}
	var downA, downB string
	for i := 0; i < episodes; i++ {
		switch {
		case downA != "":
			r.HealEdge(downA, downB, 1+r.Net.Rng.Int63n(o.MaxCost))
			downA, downB = "", ""
		case i%2 == 0:
			a, b := r.RandomEdge()
			r.SetCost(a, b, 1+r.Net.Rng.Int63n(o.MaxCost))
		default:
			// Fail a chord; ring edges keep the graph connected.
			for {
				a, b := r.RandomEdge()
				if !r.RingEdge(a, b) {
					r.FailEdge(a, b)
					downA, downB = a, b
					break
				}
			}
		}
		r.RunUntil(r.Net.Sim.Now() + 5)
		awaitRoutes(t, r, r.Net.Sim.Now()+20)
	}
	t.Logf("%d churn episodes re-converged by t=%.1f", episodes, r.Net.Sim.Now())
}
