package conform

import (
	"fmt"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
)

// LinkStateOpts configures a link-state conformance run.
type LinkStateOpts struct {
	Seed    int64
	Nodes   int     // ring size
	Chords  int     // extra random shortcut edges
	Latency float64 // per-link latency (seconds)
	Jitter  float64 // extra random per-message delay
	MaxHop  int     // flood hop budget; must cover the diameter
	MaxCost int64   // link costs are drawn from [1, MaxCost]
	// Engine overrides the cluster's evaluation options. Under AggSel the
	// planner proves lpath prunable (DESIGN.md §11 "Which selections
	// prune").
	Engine engine.Options
}

// DefaultLinkStateOpts is a ring-plus-chords topology that stays
// connected when any chord fails, with the ring as fallback.
func DefaultLinkStateOpts(seed int64) LinkStateOpts {
	return LinkStateOpts{
		Seed:    seed,
		Nodes:   14,
		Chords:  7,
		Latency: 0.01,
		Jitter:  0.002,
		MaxHop:  programs.DefaultMaxHop,
		MaxCost: 10,
	}
}

// LinkStateRun deploys the link-state program on the shared
// ring-plus-chords substrate (see graphRun for the churn and
// reliability model) and checks every node's shortest-path tables
// against the Dijkstra oracle.
type LinkStateRun struct {
	*graphRun
	Opts LinkStateOpts
}

// NewLinkStateRun builds the topology, wires the simulator links, and
// injects the initial link facts at both endpoints of every edge.
func NewLinkStateRun(o LinkStateOpts) (*LinkStateRun, error) {
	names := nodeNames("l", o.Nodes)
	net, err := NewNetOpts(o.Seed, programs.LinkState(o.MaxHop), names, o.Engine,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	r := &LinkStateRun{
		graphRun: newGraphRun(net, names, o.Chords, o.Latency, o.Jitter, o.MaxCost),
		Opts:     o,
	}
	if d := r.diameterHops(); d > o.MaxHop {
		return nil, fmt.Errorf("conform: diameter %d exceeds flood budget %d", d, o.MaxHop)
	}
	return r, nil
}

// CheckRoutes verifies every node's lsCost and lsRoute tables against
// the oracle: exactly one cost row per reachable destination with the
// true shortest-path cost, and a first hop that is a neighbor lying on
// some shortest path. Returns one message per violation.
func (r *LinkStateRun) CheckRoutes() []string {
	var errs []string
	for _, n := range r.Names {
		want := r.Dijkstra(n)
		costs := map[string]int64{}
		for _, row := range r.Net.Tuples(n, "lsCost") {
			// lsCost(@N, @D, C)
			d := row.Fields[1].Addr()
			if _, dup := costs[d]; dup {
				errs = append(errs, fmt.Sprintf("%s: duplicate lsCost rows for %s", n, d))
			}
			costs[d] = int64(row.Fields[2].Float())
		}
		for d, wc := range want {
			if d == n {
				continue
			}
			gc, ok := costs[d]
			if !ok {
				errs = append(errs, fmt.Sprintf("%s: no lsCost for %s (want %d)", n, d, wc))
				continue
			}
			if gc != wc {
				errs = append(errs, fmt.Sprintf("%s: lsCost %s = %d, oracle %d", n, d, gc, wc))
			}
		}
		for d := range costs {
			if _, ok := want[d]; !ok || d == n {
				errs = append(errs, fmt.Sprintf("%s: lsCost row for unreachable %s", n, d))
			}
		}
		for _, row := range r.Net.Tuples(n, "lsRoute") {
			// lsRoute(@N, @D, @F, C)
			d, f := row.Fields[1].Addr(), row.Fields[2].Addr()
			ec, adj := r.edges[edgeKey(n, f)]
			if !adj {
				errs = append(errs, fmt.Sprintf("%s: lsRoute to %s via non-neighbor %s", n, d, f))
				continue
			}
			fd := r.Dijkstra(f)
			if want[d] == 0 || fd[d]+ec != want[d] {
				errs = append(errs, fmt.Sprintf(
					"%s: lsRoute to %s via %s is off the shortest path", n, d, f))
			}
		}
	}
	return errs
}
