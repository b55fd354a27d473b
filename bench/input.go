package main

import (
	"math"
	"math/rand"

	"ndlog/internal/ast"
	"ndlog/internal/engine"
	"ndlog/internal/experiments"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
	"ndlog/internal/val"
)

// engineOpts is what every executor runs with: the zero value plus
// AggSel, the CLI default. No optional knob is named anywhere in this
// package, so a later change that deletes a knob or flips a default
// shows as a moved number, not as an edit here.
var engineOpts = engine.Options{AggSel: true}

// network is one generated overlay with the link metric a workload
// routes on. Update workloads mutate link costs in place, so the oracle
// always reads the costs the program was last told.
type network struct {
	cfg     experiments.Config
	overlay *topology.Overlay
	metric  topology.Metric
}

// paperScale is the 100-node, degree-4 overlay of Section 6.1. udpScale
// is the largest overlay whose cold start lost no datagram over
// loopback on the 2-core authoring box: 20 nodes, 0 lossy starts in
// 120; at 26 nodes 2 in 30 lost datagrams and 1 in 30 ended in a wrong
// fixpoint, which a workload may not do on its own inputs. stormScale
// is the 52-node overlay where loss is routine.
func paperScale() experiments.Config { return experiments.Default() }

func udpScale() experiments.Config {
	cfg := experiments.Default()
	cfg.Topology.Transits, cfg.Topology.StubsPerTrans, cfg.Topology.NodesPerStub = 2, 3, 3
	return cfg
}

func stormScale() experiments.Config {
	cfg := experiments.Default()
	cfg.Topology.NodesPerStub = 4
	return cfg
}

// newNetwork generates the overlay of one seed. At smoke scale every
// workload gets the 14-node experiments.Small().
//
// Every workload cycles through a small fixed pool of overlay seeds
// (1..pool, see ctx.cycles) rather than drawing overlays from --seed:
// cost varies by 5 % (sp100) to 20 % and more (the update workloads)
// from one overlay to the next, a run fits two to twenty cold starts,
// and the medians of free draws moved by more than a usable bound
// allows. --seed drives the update sequences only.
func (c *ctx) newNetwork(cfg experiments.Config, m topology.Metric, seed int64) *network {
	if c.smoke {
		cfg = experiments.Small()
	}
	cfg.Seed = seed
	return &network{cfg: cfg, overlay: experiments.BuildOverlay(cfg), metric: m}
}

func (n *network) ids() []string {
	out := make([]string, len(n.overlay.Nodes))
	for i, id := range n.overlay.Nodes {
		out[i] = string(id)
	}
	return out
}

// linkFacts renders every overlay edge as a link fact at both ends.
func (n *network) linkFacts() []val.Tuple {
	out := make([]val.Tuple, 0, 2*len(n.overlay.Links))
	for _, l := range n.overlay.Links {
		cost := l.Cost[n.metric]
		out = append(out,
			programs.LinkFact("link", string(l.A), string(l.B), cost),
			programs.LinkFact("link", string(l.B), string(l.A), cost))
	}
	return out
}

// parse turns the program text into an AST and appends facts, so the
// executor's own seeding path loads them.
func (n *network) parse(src string, facts []val.Tuple) (*ast.Program, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	prog.Facts = append(prog.Facts, facts...)
	return prog, nil
}

// linkUpdate is one link-cost change, to be injected at both endpoints
// as a key-replacing insert.
type linkUpdate struct {
	a, b string
	cost float64
}

// inject is one delta addressed to the node that must receive it.
type inject struct {
	node string
	d    engine.Delta
}

func (u linkUpdate) injects() [2]inject {
	return [2]inject{
		{u.a, engine.Insert(programs.LinkFact("link", u.a, u.b, u.cost))},
		{u.b, engine.Insert(programs.LinkFact("link", u.b, u.a, u.cost))},
	}
}

// perturb moves the cost of link idx by up to ±10 % (the paper's Fig 13
// setting) and records the new cost in the overlay.
func (n *network) perturb(rng *rand.Rand, idx int) linkUpdate {
	const maxDelta = 0.10
	l := n.overlay.Links[idx]
	live, _ := n.overlay.Link(l.A, l.B)
	old := live.Cost[n.metric]
	cost := old + (rng.Float64()*2-1)*maxDelta*old
	if cost < 0.01 {
		cost = 0.01
	}
	if cost == old {
		// A same-value insert is a duplicate, not an update.
		cost = old * (1 + maxDelta/2)
	}
	live.Cost[n.metric] = cost
	return linkUpdate{string(l.A), string(l.B), cost}
}

// checkPaths is the routing oracle: for every ordered (src,dst) pair,
// the minimum cost among the program's shortestPath rows must equal
// Dijkstra's on the overlay's current costs. Row counts are not
// compared: tie rows depend on arrival order under aggregate
// selections, and differ between executors on identical input. Each
// pair counts as one attempt. Returns the number of rows seen.
func (c *ctx) checkPaths(n *network, rows []val.Tuple) int {
	type pair struct{ s, d string }
	best := make(map[pair]float64, len(rows))
	for _, t := range rows {
		k := pair{t.Fields[0].Addr(), t.Fields[1].Addr()}
		cost := t.Fields[len(t.Fields)-1].Float()
		if cur, ok := best[k]; !ok || cost < cur {
			best[k] = cost
		}
	}
	for _, s := range n.overlay.Nodes {
		dist, _ := n.overlay.ShortestPaths(s, n.metric)
		for d, want := range dist {
			if d == s {
				continue
			}
			got, ok := best[pair{string(s), string(d)}]
			c.check(ok && math.Abs(got-want) <= 1e-6, "shortestPath: minimum cost missing or not Dijkstra's")
		}
	}
	return len(rows)
}
