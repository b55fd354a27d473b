package conform

import (
	"fmt"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/val"
)

// Legacy-protocol soaks: the paper's distance-vector, multicast-tree,
// and cached-source-route programs under the same oracle-checked edge
// churn the newer protocols get. All three are hard state, so they
// inherit graphRun's reliability model — churn by paired link-fact
// retraction with the channel left up, zero loss.

// PathVectorOpts configures a distance-vector (path-vector) soak.
type PathVectorOpts struct {
	Seed    int64
	Nodes   int
	Chords  int
	Latency float64
	Jitter  float64
	MaxCost int64
}

// DefaultPathVectorOpts sizes the run so per-node state (#neighbors ×
// #destinations) stays small while paths are several hops long.
//
// Jitter is zero — and must stay zero for every soak built on the DV
// program: path is keyed (src, dst, nextHop) with last-writer-wins
// replacement, which is only sound when each neighbor's advertisements
// arrive in send order. Fixed-latency simnet links are FIFO; jitter
// reorders, and a stale candidate delivered after a fresher one
// replaces it with nothing left in flight to correct it — a stable
// wrong fixpoint, not a convergence delay. Tolerating reordered (and
// lossy) channels is what the soft-state protocols are for.
func DefaultPathVectorOpts(seed int64) PathVectorOpts {
	return PathVectorOpts{
		Seed: seed, Nodes: 16, Chords: 8,
		Latency: 0.01, Jitter: 0, MaxCost: 10,
	}
}

// PathVectorRun deploys ShortestPathDV and checks every node's
// shortestPath table against the Dijkstra oracle: right cost per
// destination, and a path vector that actually walks live edges
// summing to that cost.
type PathVectorRun struct {
	*graphRun
	Opts PathVectorOpts
}

// NewPathVectorRun builds the ring-plus-chords topology and injects
// the initial link facts.
func NewPathVectorRun(o PathVectorOpts) (*PathVectorRun, error) {
	names := nodeNames("p", o.Nodes)
	net, err := NewNet(o.Seed, programs.ShortestPathDV(""), names,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	return &PathVectorRun{
		graphRun: newGraphRun(net, names, o.Chords, o.Latency, o.Jitter, o.MaxCost),
		Opts:     o,
	}, nil
}

// checkPathVector validates one path vector row: starts at src, ends at
// dst, walks live edges, and its edge costs sum to cost.
func (g *graphRun) checkPathVector(src, dst string, p []val.Value, cost int64) error {
	if len(p) < 2 {
		return fmt.Errorf("path %v too short", p)
	}
	if p[0].Addr() != src || p[len(p)-1].Addr() != dst {
		return fmt.Errorf("path %v does not run %s..%s", p, src, dst)
	}
	var sum int64
	for i := 0; i+1 < len(p); i++ {
		c, ok := g.edges[edgeKey(p[i].Addr(), p[i+1].Addr())]
		if !ok {
			return fmt.Errorf("path %v uses dead edge %s-%s", p, p[i].Addr(), p[i+1].Addr())
		}
		sum += c
	}
	if sum != cost {
		return fmt.Errorf("path %v sums to %d, row claims %d", p, sum, cost)
	}
	return nil
}

// CheckPaths verifies every node's shortestPath rows against the
// oracle. Equal-cost ties may coexist (the table is keyed on the whole
// row), so every row must carry the oracle cost and a valid vector, and
// every reachable destination must have at least one row.
func (r *PathVectorRun) CheckPaths() []string {
	var errs []string
	for _, n := range r.Names {
		want := r.Dijkstra(n)
		seen := map[string]bool{}
		for _, row := range r.Net.Tuples(n, "shortestPath") {
			// shortestPath(@S, @D, P, C)
			d := row.Fields[1].Addr()
			c := int64(row.Fields[3].Float())
			wc, ok := want[d]
			if !ok || d == n {
				errs = append(errs, fmt.Sprintf("%s: shortestPath row for unreachable %s", n, d))
				continue
			}
			if c != wc {
				errs = append(errs, fmt.Sprintf("%s: shortestPath %s = %d, oracle %d", n, d, c, wc))
			}
			if err := r.checkPathVector(n, d, row.Fields[2].List(), c); err != nil {
				errs = append(errs, fmt.Sprintf("%s -> %s: %v", n, d, err))
			}
			seen[d] = true
		}
		for d, wc := range want {
			if d != n && !seen[d] {
				errs = append(errs, fmt.Sprintf("%s: no shortestPath for %s (want %d)", n, d, wc))
			}
		}
	}
	return errs
}

// MulticastOpts configures a multicast-tree soak.
type MulticastOpts struct {
	Seed    int64
	Nodes   int
	Chords  int
	Members int // group members besides the root
	Latency float64
	Jitter  float64
	MaxCost int64
}

// DefaultMulticastOpts spreads a handful of members over the ring so
// the tree has both leaves and grafted interior nodes. Jitter stays
// zero: the tree rides on the DV program's keyed-replacement tables,
// which need FIFO links (see DefaultPathVectorOpts).
func DefaultMulticastOpts(seed int64) MulticastOpts {
	return MulticastOpts{
		Seed: seed, Nodes: 16, Chords: 6, Members: 6,
		Latency: 0.01, Jitter: 0, MaxCost: 10,
	}
}

// MulticastRun deploys the multicast tree over distance-vector routing
// and checks the tree against the Dijkstra oracle: every member's
// parent chain walks shortest-path edges to the root, and child state
// mirrors parent state exactly.
type MulticastRun struct {
	*graphRun
	Opts    MulticastOpts
	Root    string
	Members []string
}

// NewMulticastRun builds the topology, roots the group at the first
// node, and joins Members seeded-random other nodes.
func NewMulticastRun(o MulticastOpts) (*MulticastRun, error) {
	names := nodeNames("m", o.Nodes)
	net, err := NewNet(o.Seed,
		programs.Combine(programs.ShortestPathDV(""), programs.Multicast()), names,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	r := &MulticastRun{
		graphRun: newGraphRun(net, names, o.Chords, o.Latency, o.Jitter, o.MaxCost),
		Opts:     o,
		Root:     names[0],
	}
	chosen := map[string]bool{}
	for len(r.Members) < o.Members {
		c := names[1+net.Rng.Intn(len(names)-1)]
		if !chosen[c] {
			chosen[c] = true
			r.Members = append(r.Members, c)
		}
	}
	for _, m := range r.Members {
		net.Inject(m, engine.Insert(programs.MemberFact(m, r.Root)))
	}
	return r, nil
}

// CheckTree verifies the multicast tree: per non-root node at most one
// parent toward the root, each parent a neighbor on a shortest path to
// the root, every member's parent chain reaching the root without
// cycles, and child rows mirroring parent rows one-for-one.
func (r *MulticastRun) CheckTree() []string {
	var errs []string
	dist := r.Dijkstra(r.Root)
	parent := map[string]string{}
	for _, n := range r.Names {
		if n == r.Root {
			continue
		}
		for _, row := range r.Net.Tuples(n, "parent") {
			// parent(@N, @R, @Z)
			if row.Fields[1].Addr() != r.Root {
				continue
			}
			z := row.Fields[2].Addr()
			if prev, dup := parent[n]; dup {
				errs = append(errs, fmt.Sprintf("%s: two parents %s and %s", n, prev, z))
				continue
			}
			parent[n] = z
			ec, adj := r.edges[edgeKey(n, z)]
			if !adj {
				errs = append(errs, fmt.Sprintf("%s: parent %s is not a neighbor", n, z))
			} else if ec+dist[z] != dist[n] {
				errs = append(errs, fmt.Sprintf(
					"%s: parent %s is off the shortest path to %s", n, z, r.Root))
			}
		}
	}
	for _, m := range r.Members {
		cur, steps := m, 0
		for cur != r.Root {
			next, ok := parent[cur]
			if !ok {
				errs = append(errs, fmt.Sprintf("%s: branch stops at %s (no parent)", m, cur))
				break
			}
			if steps++; steps > len(r.Names) {
				errs = append(errs, fmt.Sprintf("%s: parent chain cycles", m))
				break
			}
			cur = next
		}
	}
	// child(@Z, @R, @N) at the parent must mirror parent(@N, @R, @Z).
	for _, z := range r.Names {
		for _, row := range r.Net.Tuples(z, "child") {
			if row.Fields[1].Addr() != r.Root {
				continue
			}
			n := row.Fields[2].Addr()
			if parent[n] != z {
				errs = append(errs, fmt.Sprintf("%s: stray child row for %s", z, n))
			}
		}
	}
	for n, z := range parent {
		found := false
		for _, row := range r.Net.Tuples(z, "child") {
			if row.Fields[1].Addr() == r.Root && row.Fields[2].Addr() == n {
				found = true
			}
		}
		if !found {
			errs = append(errs, fmt.Sprintf("%s: missing child row for %s", z, n))
		}
	}
	return errs
}

// DSROpts configures a cached-source-route soak. The graph is kept
// small: by default the cluster runs plain PSN without the
// aggregate-selection prune, so exploration enumerates simple paths.
type DSROpts struct {
	Seed    int64
	Nodes   int
	Chords  int
	Latency float64
	Jitter  float64
	MaxCost int64
	// Engine overrides the cluster's evaluation options. Under AggSel the
	// planner proves pathDst prunable and answer not (DESIGN.md §11
	// "Which selections prune").
	Engine engine.Options
}

// DefaultDSROpts is a sparse ten-node graph. Jitter stays zero: pathDst
// rows are keyed on the whole path but replaced on cost, so reordered
// delivery of a recost wave can pin a stale cost the same way it can in
// the DV tables (see DefaultPathVectorOpts).
func DefaultDSROpts(seed int64) DSROpts {
	return DSROpts{
		Seed: seed, Nodes: 10, Chords: 3,
		Latency: 0.01, Jitter: 0, MaxCost: 10,
	}
}

// DSRRun deploys CachedSourceRoute and checks each issued query's
// answers at its source: the best answer cost must equal the oracle's
// shortest-path cost on the current graph — after churn too, which
// exercises retraction of answers whose support died, and the hit1
// cache path on every query after the first.
type DSRRun struct {
	*graphRun
	Opts    DSROpts
	queries [][2]string
}

// NewDSRRun builds the topology and injects the initial link facts.
func NewDSRRun(o DSROpts) (*DSRRun, error) {
	names := nodeNames("d", o.Nodes)
	net, err := NewNetOpts(o.Seed, programs.CachedSourceRoute(), names, o.Engine,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	return &DSRRun{
		graphRun: newGraphRun(net, names, o.Chords, o.Latency, o.Jitter, o.MaxCost),
		Opts:     o,
	}, nil
}

// Query issues one (src, dst) source-route query.
func (r *DSRRun) Query(src, dst string) {
	r.Net.Inject(src, engine.Insert(programs.MagicQueryFact(src, dst)))
	r.queries = append(r.queries, [2]string{src, dst})
}

// CheckAnswers verifies every issued query: the source holds at least
// one answer for it, and the best answer cost equals the oracle.
// Suboptimal answer rows may coexist (the hit1 cache path returns
// prefix + cached suffix for non-optimal prefixes too); an answer
// better than the oracle means a stale row survived retraction.
func (r *DSRRun) CheckAnswers() []string {
	var errs []string
	for _, q := range r.queries {
		s, d := q[0], q[1]
		want, reach := r.Dijkstra(s)[d]
		best, found := int64(0), false
		for _, row := range r.Net.Tuples(s, "answer") {
			// answer(@N, @S, @D, P, C, SC)
			if row.Fields[1].Addr() != s || row.Fields[2].Addr() != d {
				continue
			}
			c := int64(row.Fields[4].Float())
			if !found || c < best {
				best, found = c, true
			}
		}
		switch {
		case !reach:
			errs = append(errs, fmt.Sprintf("query %s->%s: destination unreachable", s, d))
		case !found:
			errs = append(errs, fmt.Sprintf("query %s->%s: no answer (want %d)", s, d, want))
		case best != want:
			errs = append(errs, fmt.Sprintf("query %s->%s: best answer %d, oracle %d", s, d, best, want))
		}
	}
	return errs
}
