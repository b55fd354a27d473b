package conform

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// linkOp is one endpoint's half of a link change: the delta and the node
// it is injected at.
type linkOp struct {
	node string
	d    engine.Delta
}

// dynamics is a seeded schedule of link-cost dynamics over a handful of
// nodes: bursts of one to three link inserts, deletes and key-replacing
// cost updates (a bare insert of the new cost, as an operator would issue
// it — the engine replaces by key), each applied at both endpoints.
// live is the harness's own copy of the link set, the oracle's input.
type dynamics struct {
	rng   *rand.Rand
	names []string
	live  map[[2]string]float64
}

func newDynamics(seed int64) *dynamics {
	rng := rand.New(rand.NewSource(seed))
	return &dynamics{rng: rng, names: nodeNames("n", 6+rng.Intn(4)), live: map[[2]string]float64{}}
}

// burst draws the next burst and applies it to live. The link set stays
// sparse (at most two links more than nodes): without aggregate
// selections the Figure 1 program enumerates every simple path.
func (dy *dynamics) burst() []linkOp {
	var ops []linkOp
	both := func(a, b string, cost float64, mk func(val.Tuple) engine.Delta) {
		ops = append(ops,
			linkOp{a, mk(programs.LinkFact("link", a, b, cost))},
			linkOp{b, mk(programs.LinkFact("link", b, a, cost))})
	}
	for k := 1 + dy.rng.Intn(3); k > 0; k-- {
		i, j := dy.rng.Intn(len(dy.names)), dy.rng.Intn(len(dy.names))
		if i == j {
			continue
		}
		key := edgeKey(dy.names[i], dy.names[j])
		cost, alive := dy.live[key]
		next := float64(1 + dy.rng.Intn(9))
		if next == cost {
			next++ // an insert of the same cost is a duplicate, not an update
		}
		switch {
		case !alive && len(dy.live) < len(dy.names)+2:
			both(key[0], key[1], next, engine.Insert)
			dy.live[key] = next
		case !alive:
		case dy.rng.Float64() < 0.35:
			both(key[0], key[1], cost, engine.Deletion)
			delete(dy.live, key)
		default:
			both(key[0], key[1], next, engine.Insert)
			dy.live[key] = next
		}
	}
	return ops
}

// check is the Floyd–Warshall oracle: the cheapest shortestPath row of
// every ordered pair must cost what the live links say, and pairs they do
// not connect must have no row.
func (dy *dynamics) check(rows []val.Tuple) error {
	dist := map[[2]string]float64{}
	for k, c := range dy.live {
		dist[k], dist[[2]string{k[1], k[0]}] = c, c
	}
	for _, k := range dy.names {
		for _, i := range dy.names {
			for _, j := range dy.names {
				ik, ok1 := dist[[2]string{i, k}]
				kj, ok2 := dist[[2]string{k, j}]
				if !ok1 || !ok2 || i == j {
					continue
				}
				if d, ok := dist[[2]string{i, j}]; !ok || ik+kj < d {
					dist[[2]string{i, j}] = ik + kj
				}
			}
		}
	}
	got := map[[2]string]float64{}
	for _, r := range rows {
		k := [2]string{r.Fields[0].Addr(), r.Fields[1].Addr()}
		if c, ok := got[k]; !ok || r.Fields[3].Float() < c {
			got[k] = r.Fields[3].Float()
		}
	}
	for k, want := range dist {
		if c, ok := got[k]; !ok {
			return fmt.Errorf("missing shortest path %v (cost %v)", k, want)
		} else if math.Abs(c-want) > 1e-9 {
			return fmt.Errorf("cost%v = %v, want %v", k, c, want)
		}
	}
	for k := range got {
		if _, ok := dist[k]; !ok {
			return fmt.Errorf("spurious shortest path %v", k)
		}
	}
	return nil
}

// TestDistributedDynamicsProperty drives the two shortest-path programs
// through random link dynamics on the distributed executors, where a
// link-cost update travels between nodes — the path the Central dynamics
// properties never take (a single node routes nothing). On the simnet
// Cluster (full mesh, per-link random latencies) every burst runs to
// quiescence and is checked against the oracle. Parallel runs once, so
// it takes a schedule's whole history up front, each node's deltas in
// burst order, and is checked at the end: updates overtake one another
// in flight there, which the per-burst runs never see. Each seed runs
// one (program, aggregate selections) pair on both executors; the
// netting counters must show that replacements were in fact folded — in
// a node's queue and in paired strand walks — so the property cannot
// pass on un-netted traffic alone. Every seed also
// checks that no node of either executor stores a carved row
// (assertNoCarvedRow): bursts retract on every link change, and Parallel
// hands the carved retractions across goroutines.
func TestDistributedDynamicsProperty(t *testing.T) {
	const bursts = 40
	seeds := 40
	if *fullSoak {
		seeds = 400
	}
	for v, variant := range []struct {
		name   string
		src    string
		aggSel bool
	}{
		{"dv", programs.ShortestPathDV(""), false},
		{"dv-aggsel", programs.ShortestPathDV(""), true},
		{"sp", programs.ShortestPath(""), false},
		{"sp-aggsel", programs.ShortestPath(""), true},
	} {
		t.Run(variant.name, func(t *testing.T) {
			prog, err := parser.Parse(variant.src)
			if err != nil {
				t.Fatal(err)
			}
			opts := engine.Options{AggSel: variant.aggSel}
			var onCluster, onParallel engine.Netting
			chunks := 0
			for seed := int64(v + 1); seed <= int64(seeds); seed += 4 {
				log := val.TrackChunks()
				dy := newDynamics(seed)
				sim := simnet.New(seed)
				cl, err := engine.NewCluster(sim, prog, opts, engine.ClusterConfig{ProcDelay: 0.001})
				if err != nil {
					t.Fatal(err)
				}
				par, err := engine.NewParallel(prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range dy.names {
					cl.AddNode(simnet.NodeID(id))
					par.AddNode(id)
				}
				for i, a := range dy.names {
					for _, b := range dy.names[i+1:] {
						if err := sim.AddLink(simnet.NodeID(a), simnet.NodeID(b), 0.001+0.05*dy.rng.Float64(), 0); err != nil {
							t.Fatal(err)
						}
					}
				}
				for step := 0; step < bursts; step++ {
					for _, op := range dy.burst() {
						if err := cl.Inject(op.node, op.d); err != nil {
							t.Fatal(err)
						}
						if err := par.Inject(op.node, op.d); err != nil {
							t.Fatal(err)
						}
					}
					if !sim.RunToQuiescence(2_000_000) {
						t.Fatalf("seed %d burst %d: cluster did not quiesce", seed, step)
					}
					if err := dy.check(cl.QueryResults()); err != nil {
						t.Fatalf("seed %d burst %d: cluster: %v", seed, step, err)
					}
				}
				if err := par.Run(); err != nil {
					t.Fatal(err)
				}
				if err := dy.check(par.QueryResults()); err != nil {
					t.Fatalf("seed %d: parallel: %v", seed, err)
				}
				log.Stop()
				chunks += log.Len()
				for _, id := range dy.names {
					assertNoCarvedRow(t, log, fmt.Sprintf("seed %d: cluster", seed), cl.Node(simnet.NodeID(id)))
					assertNoCarvedRow(t, log, fmt.Sprintf("seed %d: parallel", seed), par.Node(id))
				}
				onCluster.Add(cl.Netting())
				onParallel.Add(par.Netting())
			}
			// A re-costed route's heads fold where they are derived: a
			// paired walk emits +new alone.
			for name, n := range map[string]engine.Netting{"cluster": onCluster, "parallel": onParallel} {
				if n.ReplaceWindows == 0 || n.QueueFolded == 0 || n.PairedWalks == 0 {
					t.Errorf("%s: netting %+v: no replacement was folded, the property is vacuous", name, n)
				}
			}
			if chunks == 0 {
				t.Error("no retraction was carved: the carving check is vacuous")
			}
		})
	}
}
