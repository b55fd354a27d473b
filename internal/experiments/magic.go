package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
	"ndlog/internal/val"
)

// MagicResult is the Figure 11 outcome: cumulative aggregate
// communication (MB) as the number of (src,dst) queries grows, for the
// five strategies of Section 6.3.
type MagicResult struct {
	Queries []int     // x-axis sample points
	NoMS    []float64 // all-pairs bottom-up baseline (flat line)
	MS      []float64 // magic sets + predicate reordering, no sharing
	MSC     []float64 // MS + query-result caching
	MSC30   []float64 // MSC with destinations restricted to 30% of nodes
	MSC10   []float64 // MSC with destinations restricted to 10% of nodes
}

// RunMagic reproduces Figure 11. nQueries is the x-axis extent (the
// paper runs 0..300); samples is the number of evenly spaced sample
// points recorded.
func RunMagic(cfg Config, nQueries, samples int) (MagicResult, error) {
	o := BuildOverlay(cfg)

	res := MagicResult{}
	for i := 1; i <= samples; i++ {
		res.Queries = append(res.Queries, i*nQueries/samples)
	}

	// Baseline: all-pairs bottom-up (Hop-Count, as in Section 6.3),
	// computed once; its cost does not depend on the query count.
	noMS, err := runAllPairsOnce(cfg, o)
	if err != nil {
		return res, fmt.Errorf("no-ms baseline: %w", err)
	}
	for range res.Queries {
		res.NoMS = append(res.NoMS, noMS)
	}

	queries := randomQueries(o, cfg.Seed, nQueries, 1.0)
	if res.MS, err = runMSFresh(cfg, o, queries, res.Queries); err != nil {
		return res, fmt.Errorf("ms: %w", err)
	}
	if res.MSC, err = runMSCached(cfg, o, queries, res.Queries); err != nil {
		return res, fmt.Errorf("msc: %w", err)
	}
	q30 := randomQueries(o, cfg.Seed+1, nQueries, 0.30)
	if res.MSC30, err = runMSCached(cfg, o, q30, res.Queries); err != nil {
		return res, fmt.Errorf("msc-30: %w", err)
	}
	q10 := randomQueries(o, cfg.Seed+2, nQueries, 0.10)
	if res.MSC10, err = runMSCached(cfg, o, q10, res.Queries); err != nil {
		return res, fmt.Errorf("msc-10: %w", err)
	}
	return res, nil
}

// randomQueries draws (src,dst) pairs; destinations are limited to the
// first dstFrac fraction of the node list (the paper's MSC-30%/10%
// variants).
func randomQueries(o *topology.Overlay, seed int64, n int, dstFrac float64) [][2]string {
	rng := rand.New(rand.NewSource(seed + 77))
	nd := int(float64(len(o.Nodes)) * dstFrac)
	if nd < 1 {
		nd = 1
	}
	out := make([][2]string, 0, n)
	for len(out) < n {
		s := o.Nodes[rng.Intn(len(o.Nodes))]
		d := o.Nodes[rng.Intn(nd)]
		if s == d {
			continue
		}
		out = append(out, [2]string{string(s), string(d)})
	}
	return out
}

func runAllPairsOnce(cfg Config, o *topology.Overlay) (float64, error) {
	dep, err := deploy(cfg, o, programs.ShortestPath(""), engine.Options{AggSel: true},
		engine.ClusterConfig{}, map[string]topology.Metric{"": topology.HopCount}, nil)
	if err != nil {
		return 0, err
	}
	ok, err := dep.cluster.Run(cfg.MaxEvents)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("did not quiesce")
	}
	return dep.bw.TotalMB(), nil
}

// cachePruneFilter implements the engine-level half of query-result
// caching (Section 5.2):
//
//   - exploration (rule cs2) is suppressed at nodes that already hold a
//     cached suffix to the query's destination, and
//   - the cache-hit rule (hit1) fires only for freshly arriving
//     exploration tuples, not for cache-triggered replays against old
//     queries' stored exploration state.
func cachePruneFilter(n *engine.Node, rule string, d engine.Delta) bool {
	if rule == "hit1" && d.Tuple.Pred == "cache" {
		return false
	}
	if rule != "cs2" || d.Sign < 0 || d.Tuple.Pred != "pathDst" {
		return true
	}
	qd := d.Tuple.Fields[2]
	probe := val.NewTuple("cache", val.NewAddr(n.ID()), qd, val.Nil)
	cache := n.Catalog().Get("cache")
	if e, ok := cache.Get(probe); ok && e.Tuple.Fields[1].Equal(qd) {
		return false
	}
	return true
}

// runMSFresh measures magic sets without caching: every query runs on a
// fresh deployment (no state carries over), and the per-query bytes
// accumulate. The answer still travels back to the source (both
// strategies pay for the return trip), but nothing is cached: the ca1
// and hit1 strands are disabled.
func runMSFresh(cfg Config, o *topology.Overlay, queries [][2]string, samplePts []int) ([]float64, error) {
	noCache := func(n *engine.Node, rule string, d engine.Delta) bool {
		return rule != "ca1" && rule != "hit1"
	}
	cum := 0.0
	out := make([]float64, 0, len(samplePts))
	next := 0
	for qi, q := range queries {
		if next >= len(samplePts) {
			break
		}
		dep, err := deploy(cfg, o, programs.CachedSourceRoute(),
			engine.Options{AggSel: true, StrandFilter: noCache}, engine.ClusterConfig{},
			map[string]topology.Metric{"": topology.HopCount},
			func(p *progFacts) { p.addFact(programs.MagicQueryFact(q[0], q[1])) })
		if err != nil {
			return nil, err
		}
		ok, err := dep.cluster.Run(cfg.MaxEvents)
		if err != nil {
			return nil, err
		}
		if !ok {
			return nil, fmt.Errorf("query %d did not quiesce", qi)
		}
		cum += dep.bw.TotalMB()
		for next < len(samplePts) && qi+1 >= samplePts[next] {
			out = append(out, cum)
			next++
		}
	}
	for next < len(samplePts) {
		out = append(out, cum)
		next++
	}
	return out, nil
}

// runMSCached runs the query sequence on one persistent deployment with
// query-result caching: cache tables survive across queries, cache hits
// answer directly, and exploration is pruned at cached nodes.
func runMSCached(cfg Config, o *topology.Overlay, queries [][2]string, samplePts []int) ([]float64, error) {
	opts := engine.Options{AggSel: true, StrandFilter: cachePruneFilter}
	dep, err := deploy(cfg, o, programs.CachedSourceRoute(), opts, engine.ClusterConfig{},
		map[string]topology.Metric{"": topology.HopCount}, nil)
	if err != nil {
		return nil, err
	}
	if err := dep.cluster.Seed(); err != nil {
		return nil, err
	}
	if !dep.sim.RunToQuiescence(cfg.MaxEvents) {
		return nil, fmt.Errorf("seed did not quiesce")
	}

	out := make([]float64, 0, len(samplePts))
	next := 0
	for qi, q := range queries {
		if next >= len(samplePts) {
			break
		}
		if err := dep.cluster.Inject(q[0], engine.Insert(programs.MagicQueryFact(q[0], q[1]))); err != nil {
			return nil, err
		}
		if !dep.sim.RunToQuiescence(cfg.MaxEvents) {
			return nil, fmt.Errorf("query %d did not quiesce", qi)
		}
		for next < len(samplePts) && qi+1 >= samplePts[next] {
			out = append(out, dep.bw.TotalMB())
			next++
		}
	}
	for next < len(samplePts) {
		out = append(out, dep.bw.TotalMB())
		next++
	}
	return out, nil
}

// FormatMagic renders the Figure 11 table.
func FormatMagic(r MagicResult) string {
	var b strings.Builder
	b.WriteString("== Figure 11: aggregate communication (MB) vs number of queries ==\n\n")
	fmt.Fprintf(&b, "%-8s %10s %10s %10s %10s %10s\n",
		"queries", "No-MS", "MS", "MSC", "MSC-30%", "MSC-10%")
	for i, q := range r.Queries {
		fmt.Fprintf(&b, "%-8d %10.3f %10.3f %10.3f %10.3f %10.3f\n",
			q, r.NoMS[i], r.MS[i], r.MSC[i], r.MSC30[i], r.MSC10[i])
	}
	return b.String()
}
