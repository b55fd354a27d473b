// DSR: targeted route discovery in the style of dynamic source routing
// (Section 5.1.2), using magic sets and predicate reordering.
//
// Instead of computing all-pairs shortest paths bottom-up, the top-down
// program explores from the query source only, filters at the
// destination, and returns the answer along the reverse path — caching
// every node's optimal suffix on the way back (Section 5.2). A second
// query for the same destination then terminates early on cache hits.
package main

import (
	"fmt"
	"log"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/topology"
	"ndlog/internal/val"
)

func main() {
	underlay := topology.TransitStub(topology.TransitStubParams{
		Transits: 2, StubsPerTrans: 2, NodesPerStub: 4,
		TransitLatency: 0.050, StubLatency: 0.010, IntraLatency: 0.002,
	})
	overlay := topology.NewOverlay(underlay, 3, 7)

	prog, err := parser.Parse(programs.CachedSourceRoute())
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range overlay.Links {
		cost := l.Cost[topology.HopCount]
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", string(l.A), string(l.B), cost),
			programs.LinkFact("link", string(l.B), string(l.A), cost))
	}

	sim := simnet.New(7)
	cluster, err := engine.NewCluster(sim, prog,
		engine.Options{
			AggSel:       true,
			StrandFilter: cacheFilter,
		},
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range overlay.Nodes {
		cluster.AddNode(n)
	}
	for _, l := range overlay.Links {
		if err := sim.AddLink(l.A, l.B, l.LatencySec, 0); err != nil {
			log.Fatal(err)
		}
	}
	if err := cluster.Seed(); err != nil {
		log.Fatal(err)
	}
	sim.RunToQuiescence(10_000_000)

	src1 := string(overlay.Nodes[0])
	src2 := string(overlay.Nodes[1])
	dst := string(overlay.Nodes[len(overlay.Nodes)-1])

	runQuery := func(s, d string) {
		before := sim.Bytes()
		if err := cluster.Inject(s, engine.Insert(programs.MagicQueryFact(s, d))); err != nil {
			log.Fatal(err)
		}
		if !sim.RunToQuiescence(10_000_000) {
			log.Fatal("query did not quiesce")
		}
		fmt.Printf("query %s -> %s: %.1f KB\n", s, d, float64(sim.Bytes()-before)/1000)
		// Several candidate answers can arrive (direct discovery plus
		// cache hits); the source takes the cheapest. Its path vector is
		// the explored prefix — on a cache hit it ends at the node whose
		// cached suffix completes the route.
		var best *val.Tuple
		for _, t := range cluster.Node(simnet.NodeID(s)).Tuples("answer") {
			t := t
			if t.Fields[0].Addr() != s || t.Fields[2].Addr() != d {
				continue
			}
			if best == nil || t.Fields[4].Float() < best.Fields[4].Float() {
				best = &t
			}
		}
		if best == nil {
			fmt.Println("  no route")
			return
		}
		fmt.Printf("  best route: %v hops, prefix %v (suffix cost %v cached)\n",
			best.Fields[4].Float(), best.Fields[3], best.Fields[5].Float())
	}

	fmt.Println("first query (cold caches):")
	runQuery(src1, dst)

	fmt.Println("\nsecond query, same destination (warm caches prune exploration):")
	runQuery(src2, dst)

	// Show where suffixes were cached.
	fmt.Println("\ncached suffixes to", dst, ":")
	for _, n := range overlay.Nodes {
		for _, t := range cluster.Node(n).Tuples("cache") {
			if t.Fields[1].Addr() == dst {
				fmt.Printf("  %-8s knows cost %.0f\n", n, t.Fields[2].Float())
			}
		}
	}
}

// cacheFilter prunes exploration at nodes holding a cached suffix for
// the query destination and keeps the cache-hit rule scoped to fresh
// exploration tuples (same policy as the Figure 11 experiment).
func cacheFilter(n *engine.Node, rule string, d engine.Delta) bool {
	if rule == "hit1" && d.Tuple.Pred == "cache" {
		return false
	}
	if rule != "cs2" || d.Sign < 0 || d.Tuple.Pred != "pathDst" {
		return true
	}
	qd := d.Tuple.Fields[2]
	probe := val.NewTuple("cache", val.NewAddr(n.ID()), qd, val.Nil)
	if e, ok := n.Catalog().Get("cache").Get(probe); ok && e.Tuple.Fields[1].Equal(qd) {
		return false
	}
	return true
}
