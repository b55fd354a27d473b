package experiments

import (
	"math/rand"
	"testing"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
)

// TestDVBurstExactCounts pins what one link-cost burst costs the
// distance-vector program on the 14-node Small overlay under the simnet
// Cluster (PSN, aggregate selections on, as bench/ runs it): under
// virtual time the derivations, retractions, messages and bytes of a
// burst are exact, so a change that moves one has to say which and why.
// The burst re-costs a third of the links, drawn by a fixed seed, and
// the fixpoint after it is oracle-checked.
func TestDVBurstExactCounts(t *testing.T) {
	cfg := Small()
	o := BuildOverlay(cfg)
	var derivs, retracts int
	opts := engine.Options{
		AggSel:   true,
		OnDerive: func(string, string, engine.Delta) { derivs++ },
		OnStore: func(_ string, d engine.Delta, _ float64) {
			if d.Sign < 0 {
				retracts++
			}
		},
	}
	dep, err := deploy(cfg, o, programs.ShortestPathDV(""), opts,
		engine.ClusterConfig{}, map[string]topology.Metric{"": topology.Random}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.cluster.Seed(); err != nil {
		t.Fatal(err)
	}
	if !dep.sim.RunToQuiescence(cfg.MaxEvents) {
		t.Fatal("cold start did not quiesce")
	}
	derivs, retracts = 0, 0
	msgs, bytes := dep.sim.Messages(), dep.sim.Bytes()
	applyBurst(dep, o, rand.New(rand.NewSource(7)), 0.3, 0.10)
	if !dep.sim.RunToQuiescence(cfg.MaxEvents) {
		t.Fatal("burst did not quiesce")
	}
	if missing, wrong := VerifyAgainstOracle(dep.cluster, "shortestPath", oracle(o, topology.Random)); missing != 0 || wrong != 0 {
		t.Fatalf("after the burst: %d pairs missing, %d wrong", missing, wrong)
	}
	got := [4]int64{int64(derivs), int64(retracts), dep.sim.Messages() - msgs, dep.sim.Bytes() - bytes}
	// Before replacements folded in the queue and in paired walks, the
	// same burst read 1 521, 776, 254 and 45 094.
	want := [4]int64{876, 757, 254, 43484}
	if got != want {
		t.Errorf("one burst: derivations, retractions, messages, bytes = %v, want %v", got, want)
	}
}
