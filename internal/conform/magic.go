package conform

import (
	"fmt"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
)

// MagicOpts configures a magic-sets query run: the paper's cached
// source-route program (the Section 5.1.2 rewrite plus the Section 5.2
// caching rules, the Figure 11 workload) deployed on the same
// ring-plus-chords substrate as the link-state harness and driven by
// on-demand (src, dst) route queries instead of an all-pairs
// computation.
type MagicOpts struct {
	Seed    int64
	Nodes   int     // ring size
	Chords  int     // extra random shortcut edges
	Latency float64 // per-link latency (seconds)
	Jitter  float64 // extra random per-message delay
	MaxCost int64   // link costs are drawn from [1, MaxCost]
	// Engine overrides the cluster's evaluation options. Under AggSel the
	// planner proves pathDst prunable and answer not (DESIGN.md §11
	// "Which selections prune"): the localBest minimum prunes
	// non-improving exploration at every intermediate node, which is
	// cross-link and so saves real messages.
	Engine engine.Options
}

// DefaultMagicOpts matches the link-state topology defaults, so magic
// rows are comparable to the all-pairs link-state rows: same graph,
// query-driven instead of flooded.
func DefaultMagicOpts(seed int64) MagicOpts {
	return MagicOpts{
		Seed:    seed,
		Nodes:   14,
		Chords:  7,
		MaxCost: 10,
		Latency: 0.01,
		Jitter:  0.002,
	}
}

// MagicRun deploys CachedSourceRoute on the graph substrate. Queries
// are injected with Ask and checked with CheckAnswer against the
// Dijkstra oracle.
type MagicRun struct {
	*graphRun
	Opts MagicOpts
}

// NewMagicRun builds the topology and injects the link facts; no
// computation runs until the first Ask seeds a query.
func NewMagicRun(o MagicOpts) (*MagicRun, error) {
	names := nodeNames("m", o.Nodes)
	net, err := NewNetOpts(o.Seed, programs.CachedSourceRoute(), names, o.Engine,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	return &MagicRun{
		graphRun: newGraphRun(net, names, o.Chords, o.Latency, o.Jitter, o.MaxCost),
		Opts:     o,
	}, nil
}

// Ask seeds one (src, dst) query at the source; exploration tuples
// carry the query destination, and the answer propagates back to src
// along the discovered path, caching suffix costs on the way.
func (r *MagicRun) Ask(src, dst string) {
	r.Net.Inject(src, engine.Insert(programs.MagicQueryFact(src, dst)))
}

// CheckAnswer verifies the query result held AT THE SOURCE: some
// answer(@S,@S,@D,P,C,SC) row must carry the oracle's shortest-path
// cost, no row may beat it (every answer is a real path), and once the
// optimum has arrived the source's cached cost to dst — a min over the
// answers' suffix costs — must equal it. Cache-hit answers (hit1) may
// legitimately report suboptimal costs, so equality is demanded of the
// best row, not all rows. Returns one message per violation.
func (r *MagicRun) CheckAnswer(src, dst string) []string {
	want, reachable := r.Dijkstra(src)[dst]
	if !reachable {
		return []string{fmt.Sprintf("harness bug: query %s->%s over a disconnected pair", src, dst)}
	}
	var errs []string
	best := int64(-1)
	for _, row := range r.Net.Tuples(src, "answer") {
		// answer(@N, @S, @D, P, C, SC)
		if row.Fields[1].Addr() != src || row.Fields[2].Addr() != dst {
			continue
		}
		c := int64(row.Fields[4].Float())
		if c < want {
			errs = append(errs, fmt.Sprintf("%s->%s: answer cost %d beats the oracle's %d", src, dst, c, want))
		}
		if best < 0 || c < best {
			best = c
		}
	}
	switch {
	case best < 0:
		return append(errs, fmt.Sprintf("%s->%s: no answer at the source", src, dst))
	case best != want:
		return append(errs, fmt.Sprintf("%s->%s: best answer cost %d, oracle %d", src, dst, best, want))
	}
	for _, row := range r.Net.Tuples(src, "cache") {
		// cache(@N, @D, SC)
		if row.Fields[1].Addr() != dst {
			continue
		}
		if sc := int64(row.Fields[2].Float()); sc != want {
			errs = append(errs, fmt.Sprintf("%s->%s: cached cost %d, oracle %d", src, dst, sc, want))
		}
	}
	return errs
}
