package conform

import (
	"fmt"
	"testing"

	"ndlog/internal/engine"
)

// awaitRing advances virtual time in stabilization-period steps until
// the ring invariant holds at every live node, failing at the deadline.
// Returns true on convergence.
func awaitRing(t *testing.T, r *ChordRun, deadline float64) bool {
	t.Helper()
	for {
		errs := r.CheckRing()
		if len(errs) == 0 {
			return true
		}
		if r.Net.Sim.Now() >= deadline {
			for _, e := range errs {
				t.Errorf("ring invariant: %s", e)
			}
			return false
		}
		r.RunUntil(r.Net.Sim.Now() + r.Opts.StabEvery)
	}
}

// verifyLookups injects count random lookups and checks every answer
// against the oracle, retrying unanswered samples (loss, or a forward
// into a dead node's stale finger) a bounded number of times. A wrong
// answer is a hard failure, never retried.
func verifyLookups(t *testing.T, r *ChordRun, count int) {
	t.Helper()
	samples := r.InjectLookups(count)
	for attempt := 0; len(samples) > 0; attempt++ {
		r.RunUntil(r.Net.Sim.Now() + 2)
		failed, errs := r.CheckLookups(samples)
		for _, e := range errs {
			t.Errorf("lookup conformance: %s", e)
		}
		if attempt >= 5 {
			for _, s := range failed {
				t.Errorf("lookup %d at %s: no answer after %d attempts",
					s.Key, s.Node, attempt+1)
			}
			return
		}
		samples = samples[:0]
		for _, s := range failed {
			samples = append(samples, r.Reinject(s))
		}
	}
}

// TestChordConformance is the acceptance run: a 100-node ring forms
// from a single landmark, satisfies the ring invariant everywhere,
// resolves every sampled lookup to the oracle's true successor, then
// survives a seeded churn episode (8 joins + 6 leaves) and does it all
// again.
func TestChordConformance(t *testing.T) {
	o := DefaultChordOpts(42)
	if !*fullSoak {
		o.Nodes, o.Reserve = 25, 4
	}
	r, err := NewChordRun(o)
	if err != nil {
		t.Fatal(err)
	}

	// The ring repairs by a backward walk (ask your best successor for
	// its predecessor), retiring roughly one misplaced arc node per
	// stabilization round — early joiners with long arcs dominate the
	// tail, so bring-up convergence grows with n. 25 nodes settle around
	// t=70; 100 need a few hundred virtual seconds.
	deadline := 400.0
	if !*fullSoak {
		deadline = 120
	}
	r.RunUntil(30)
	if !awaitRing(t, r, deadline) {
		t.Fatalf("initial ring never converged (%d live nodes)", len(r.liveNames()))
	}
	t.Logf("ring of %d converged by t=%.1f", len(r.liveNames()), r.Net.Sim.Now())
	verifyLookups(t, r, 30)

	churnStart := r.Net.Sim.Now() + 2
	leaves := 6
	if !*fullSoak {
		leaves = 4
	}
	r.Churn(churnStart, 10, r.Opts.Reserve, leaves)
	r.RunUntil(churnStart + 12)

	if !awaitRing(t, r, r.Net.Sim.Now()+60) {
		t.Fatalf("ring never re-converged after churn (%d live)", len(r.liveNames()))
	}
	t.Logf("post-churn ring of %d re-converged by t=%.1f",
		len(r.liveNames()), r.Net.Sim.Now())
	verifyLookups(t, r, 30)
}

// TestChordUnderLoss reruns a smaller ring with 5%% message loss and
// jitter: periodic soft-state refresh makes every exchange retryable,
// so the ring still converges and lookups still conform (with retries
// absorbing lost answers).
func TestChordUnderLoss(t *testing.T) {
	o := DefaultChordOpts(7)
	o.Nodes, o.Reserve = 30, 4
	o.Loss = 0.05
	o.Jitter = 0.01
	r, err := NewChordRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(25)
	if !awaitRing(t, r, 60) {
		t.Fatalf("lossy ring never converged")
	}
	verifyLookups(t, r, 20)

	start := r.Net.Sim.Now() + 2
	r.Churn(start, 8, 2, 3)
	r.RunUntil(start + 10)
	if !awaitRing(t, r, r.Net.Sim.Now()+40) {
		t.Fatalf("lossy ring never re-converged after churn")
	}
	verifyLookups(t, r, 20)
}

// chordSweepBudget bounds the derivations one seed of TestChordSeedSweep
// may make at 32 nodes, bring-up and lookups together. Seeds 1..40 stay
// under 34 000. An expiry that retracts what its row supported costs
// more than the budget on a quarter of them, and a retraction cascade or
// a ring that never settles costs several times more.
const chordSweepBudget = 50_000

// TestChordSeedSweep brings up a 32-node ring per seed on bench's
// chord32-sim schedule — poll the ring invariant once per virtual second
// from t=10 until it holds (giving up at t=240), then issue 24 lookups
// and retry the unanswered ones up to five times, two virtual seconds
// apart — and requires a correct ring, correct answers and at most
// chordSweepBudget derivations. The default run takes the seeds that
// once ended in a wrong ring (2, 19, 20, 22, 25, 36) and the one whose
// refresh cycles kept stale state alive (12); -conform.full takes 1..40.
func TestChordSeedSweep(t *testing.T) {
	seeds := []int64{2, 12, 19, 20, 22, 25, 36}
	if *fullSoak {
		seeds = seeds[:0]
		for s := int64(1); s <= 40; s++ {
			seeds = append(seeds, s)
		}
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			derivations := 0
			o := DefaultChordOpts(seed)
			o.Nodes, o.Reserve = 32, 2
			o.Engine.OnDerive = func(string, string, engine.Delta) {
				if derivations++; derivations > chordSweepBudget {
					t.Fatalf("over the budget of %d derivations", chordSweepBudget)
				}
			}
			r, err := NewChordRun(o)
			if err != nil {
				t.Fatal(err)
			}
			now := r.Net.Sim.Now
			r.RunUntil(10)
			errs := r.CheckRing()
			for len(errs) > 0 && now() < 240 {
				r.RunUntil(now() + 1)
				errs = r.CheckRing()
			}
			for _, e := range errs {
				t.Errorf("ring invariant at t=%.0f: %s", now(), e)
			}
			samples := r.InjectLookups(24)
			for attempt := 0; len(samples) > 0 && attempt < 5; attempt++ {
				r.RunUntil(now() + 2)
				failed, errs := r.CheckLookups(samples)
				for _, e := range errs {
					t.Errorf("lookup conformance: %s", e)
				}
				samples = samples[:0]
				for _, s := range failed {
					samples = append(samples, r.Reinject(s))
				}
			}
			for _, s := range samples {
				t.Errorf("lookup %d at %s: no answer after 5 retries", s.Key, s.Node)
			}
			t.Logf("ring at t=%.0f, %d derivations", now(), derivations)
		})
	}
}
