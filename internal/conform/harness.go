// Package conform is the protocol conformance harness: it deploys each
// NDlog protocol program on simnet topologies, drives it with periodic
// ticks, seeded churn (join/leave/partition/heal), link loss and
// jitter, and checks the distributed fixpoint against an independent
// Go oracle — the ring invariant for Chord, Dijkstra for the routing
// protocols, an infection-model bound for gossip.
//
// Everything is deterministic under a seed: the simulator's loss and
// jitter draws, the harness's churn and partner choices, and the
// discrete-event schedule itself.
package conform

import (
	"fmt"
	"math/rand"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// Net is one deployed protocol instance: a simulator, a cluster
// running the program, and the harness's own rng (separate from the
// simulator's, so churn choices don't perturb loss draws).
type Net struct {
	Sim     *simnet.Sim
	Cluster *engine.Cluster
	Rng     *rand.Rand
}

// NewNetOpts parses src and attaches a cluster with the given nodes
// under the caller's engine options. No links or facts are created;
// callers wire the topology they need. The harness's debug taps are
// layered over any hooks the caller installed.
//
// The zero Options are plain PSN with no aggregate-selections pruning,
// the unoptimized semantics; AggSel prunes only the selections the
// planner proves safe (DESIGN.md §11 "Which selections prune").
func NewNetOpts(seed int64, src string, nodes []string, opts engine.Options, cc engine.ClusterConfig) (*Net, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("conform: parse: %w", err)
	}
	sim := simnet.New(seed)
	userDerive, userStore := opts.OnDerive, opts.OnStore
	opts.OnDerive = func(nodeID, rule string, d engine.Delta) {
		if userDerive != nil {
			userDerive(nodeID, rule, d)
		}
		if debugOnDerive != nil {
			debugOnDerive(nodeID, rule, d)
		}
	}
	opts.OnStore = func(nodeID string, d engine.Delta, now float64) {
		if userStore != nil {
			userStore(nodeID, d, now)
		}
		if debugOnStore != nil {
			debugOnStore(nodeID, d, now)
		}
	}
	cl, err := engine.NewCluster(sim, prog, opts, cc)
	if err != nil {
		return nil, fmt.Errorf("conform: cluster: %w", err)
	}
	for _, n := range nodes {
		cl.AddNode(simnet.NodeID(n))
	}
	return &Net{Sim: sim, Cluster: cl, Rng: rand.New(rand.NewSource(seed + 1))}, nil
}

// FullMesh links every node pair with uniform latency, jitter and loss
// — the Chord/gossip substrate, where any node may address any other.
func (n *Net) FullMesh(latency, jitter, loss float64) error {
	ids := n.Sim.Nodes()
	for i, a := range ids {
		for _, b := range ids[i+1:] {
			if err := n.Sim.AddLink(a, b, latency, loss); err != nil {
				return err
			}
			if jitter > 0 {
				if err := n.Sim.SetJitter(a, b, jitter); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Every schedules fn at start and then every period virtual seconds,
// forever. Drive the run with Sim.Run(until); pending driver events
// past the horizon simply stay queued.
func (n *Net) Every(start, period float64, fn func(now float64)) {
	var tick func(now float64)
	tick = func(now float64) {
		fn(now)
		n.Sim.ScheduleFunc(period, tick)
	}
	n.Sim.ScheduleFunc(start, tick)
}

// SweepEvery runs periodic soft-state expiry across the cluster.
func (n *Net) SweepEvery(period float64) {
	n.Every(period, period, func(float64) { n.Cluster.ExpireAll() })
}

// Inject pushes a delta at the current virtual time, panicking on
// unknown nodes (a harness bug, not a protocol outcome).
func (n *Net) Inject(node string, d engine.Delta) {
	if err := n.Cluster.Inject(node, d); err != nil {
		panic(err)
	}
}

// Tuples is shorthand for one node's stored rows of a predicate.
func (n *Net) Tuples(node, pred string) []val.Tuple {
	return n.Cluster.Node(simnet.NodeID(node)).Tuples(pred)
}

// debugOnDerive, when non-nil, observes every rule firing (test-only).
var debugOnDerive func(nodeID, ruleLabel string, d engine.Delta)

// debugOnStore, when non-nil, observes every table change (test-only).
var debugOnStore func(nodeID string, d engine.Delta, now float64)

// nodeNames generates count names with the given prefix ("n000"...).
func nodeNames(prefix string, count int) []string {
	out := make([]string, count)
	for i := range out {
		out[i] = fmt.Sprintf("%s%03d", prefix, i)
	}
	return out
}
