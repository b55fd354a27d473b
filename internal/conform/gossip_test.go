package conform

import (
	"testing"
)

// awaitFresh runs whole rounds until the freshness check over scope
// holds, failing after maxRounds more rounds.
func awaitFresh(t *testing.T, r *GossipRun, scope []string, maxRounds int) {
	t.Helper()
	for i := 0; ; i++ {
		errs := r.CheckFresh(scope)
		if len(errs) == 0 {
			return
		}
		if i >= maxRounds {
			for _, e := range errs {
				t.Errorf("freshness: %s", e)
			}
			t.Fatalf("freshness incomplete after %d extra rounds (t=%.1f)", i, r.Net.Sim.Now())
		}
		r.RunRounds(1)
	}
}

// TestGossipConformance checks the epidemic failure detector against
// the infection-model oracle: every live node hears a fresh counter for
// every other within the 3*log2(n) round bound, a silenced node's
// counter freezes and is flagged stale once it lags past DetectRounds,
// and a late joiner's counter disseminates within the bound again.
func TestGossipConformance(t *testing.T) {
	o := DefaultGossipOpts(5)
	if !*fullSoak {
		o.Nodes = 20
	}
	r, err := NewGossipRun(o)
	if err != nil {
		t.Fatal(err)
	}
	// One node stays out for the late-join episode.
	joiner := r.Names[o.Nodes-1]
	delete(r.live, joiner)

	r.RunRounds(r.ConvergeRounds())
	awaitFresh(t, r, nil, 3)
	t.Logf("coverage of %d by t=%.1f", len(r.liveNames()), r.Net.Sim.Now())

	// Fail two nodes; their counters stop rising, so after DetectRounds
	// more rounds every survivor must see them as stale — while the
	// survivors' own views stay fresh.
	dead := []string{r.Names[1], r.Names[2]}
	for _, d := range dead {
		r.Fail(d)
	}
	r.RunRounds(r.DetectRounds() + 1)
	for _, e := range r.CheckDetected(nil, dead) {
		t.Errorf("detection: %s", e)
	}
	awaitFresh(t, r, nil, 3)

	// Late join: the newcomer is known everywhere — and knows everyone —
	// within the infection bound.
	r.Join(joiner)
	r.RunRounds(r.ConvergeRounds())
	awaitFresh(t, r, nil, 3)
	t.Logf("late join disseminated by t=%.1f", r.Net.Sim.Now())
}

// TestGossipPartition splits the mesh, expects each side to detect the
// other as stale within DetectRounds while staying fresh internally,
// then heals and expects full freshness again within the infection
// bound. Runs with message loss: staleness detection tolerates dropped
// pushes, it just shifts a node's lag by the odd round.
func TestGossipPartition(t *testing.T) {
	o := DefaultGossipOpts(9)
	o.Loss = 0.05
	o.Jitter = 0.01
	if !*fullSoak {
		o.Nodes = 20
	}
	r, err := NewGossipRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunRounds(r.ConvergeRounds())
	awaitFresh(t, r, nil, 5)

	names := r.liveNames()
	half := names[:len(names)/2]
	rest := names[len(names)/2:]
	r.Partition(half)
	// Both sides keep heartbeating, but cross-partition pushes die on
	// the cut links: each side's view of the other freezes at the
	// partition-time counters while the shared counter keeps climbing.
	// Inside a side, roughly half of each node's pushes are wasted on
	// unreachable partners, so dissemination runs slower — the retry
	// budget in awaitFresh absorbs that.
	r.RunRounds(r.DetectRounds() + 1)
	for _, e := range r.CheckDetected(half, rest) {
		t.Errorf("partition (A side): %s", e)
	}
	for _, e := range r.CheckDetected(rest, half) {
		t.Errorf("partition (B side): %s", e)
	}
	awaitFresh(t, r, half, 5)
	awaitFresh(t, r, rest, 5)

	r.Heal()
	r.RunRounds(r.ConvergeRounds())
	awaitFresh(t, r, nil, 5)
	t.Logf("healed mesh re-converged by t=%.1f", r.Net.Sim.Now())
}
