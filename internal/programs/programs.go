// Package programs holds the NDlog programs of the paper: the
// shortest-path query of Figure 1 (with the cycle guard that makes the
// unoptimized query terminate on cyclic networks), per-metric renamed
// variants for multi-query experiments, and the magic-sets/top-down
// source-routing program of Section 5.1.2 (SP1-SD..SP4-SD) extended with
// the answer return path used for query-result caching.
//
// Everything here is a pure text or fact generator: functions return
// fresh source strings and freshly built tuples with no shared state,
// so callers may combine, reparse, and append to the results freely.
package programs

import (
	"fmt"
	"strings"

	"ndlog/internal/val"
)

// ShortestPath returns the Figure 1 program. Predicates are suffixed
// with sfx ("" for the canonical names), so several metric variants can
// run side by side in one engine (Section 6.4).
//
// Table keys: path's primary key is (src, dst, pathVector), so a link
// cost update re-derives the same vector with a new cost and replaces
// the old row (update = delete + insert, Section 4). shortestPath is
// declared on its whole row; the engine infers the narrower key
// (src, dst, pathVector) from sp4, because spCost's key fixes the cost
// of a (src, dst) pair (DESIGN.md §14, "Keys the rules imply"). So a
// re-costed shortest path replaces its row, while equal-cost ties, which
// differ in their vector, still coexist, as the count algorithm
// requires — a (src,dst)-keyed table would let one tie replace another
// and lose the survivor's derivation count (ndcheck reports that key as
// contradicted by sp4).
func ShortestPath(sfx string) string {
	return shortestPathKeyed(sfx, "keys(1,2,4)")
}

// ShortestPathDV is the distance-vector formulation: the recursion runs
// through the aggregate result (a node advertises only its current
// shortest paths, never raw candidates). State per node is bounded by
// #neighbors × #destinations × #tied-optima, so the cascades triggered
// by link-cost updates stay proportional to the change rather than to
// accumulated history: this is the Figure 13/14 configuration.
//
// path is keyed (src, dst, nextHop, pathVector), not just
// (src, dst, nextHop): a neighbor at a cost tie advertises several
// optima at once, and under a nextHop-only key the later advertisement
// silently replaces the earlier one, so when churn later retracts the
// replacement the survivor's row is already gone — a stable wrong
// fixpoint, with nothing in flight to repair it (the count algorithm
// can only retract exactly what was derived). Keying on the vector
// gives every advertised optimum its own row; replacement still
// collapses same-vector cost updates, the one case where
// last-writer-wins is sound on FIFO links. shortestPath's key is
// inferred as for ShortestPath: (src, dst, pathVector), with ties
// coexisting.
func ShortestPathDV(sfx string) string {
	r := func(name string) string { return name + sfx }
	return fmt.Sprintf(`
materialize(%[1]s, infinity, infinity, keys(1,2)).
materialize(%[2]s, infinity, infinity, keys(1,2,3,4)).
materialize(%[3]s, infinity, infinity, keys(1,2)).
materialize(%[4]s, infinity, infinity, keys(1,2,3,4)).

dv1%[5]s %[2]s(@S,@D,@D,P,C) :- #%[1]s(@S,@D,C), P := f_concatPath(S, [D]).
dv2%[5]s %[2]s(@S,@D,@Z,P,C) :- #%[1]s(@S,@Z,C1), %[4]s(@Z,@D,P2,C2),
	f_member(P2, S) == false, C := C1 + C2, P := f_concatPath(S, P2).
dv3%[5]s %[3]s(@S,@D,min<C>) :- %[2]s(@S,@D,@_Z,_P,C).
dv4%[5]s %[4]s(@S,@D,P,C) :- %[3]s(@S,@D,C), %[2]s(@S,@D,@_Z,P,C).

query %[4]s(@S,@D,P,C).
`, r("link"), r("path"), r("spCost"), r("shortestPath"), sfx)
}

func shortestPathKeyed(sfx, pathKeys string) string {
	r := func(name string) string { return name + sfx }
	return fmt.Sprintf(`
materialize(%[1]s, infinity, infinity, keys(1,2)).
materialize(%[2]s, infinity, infinity, %[6]s).
materialize(%[3]s, infinity, infinity, keys(1,2)).
materialize(%[4]s, infinity, infinity, keys(1,2,3,4)).

sp1%[5]s %[2]s(@S,@D,@D,P,C) :- #%[1]s(@S,@D,C), P := f_concatPath(S, [D]).
sp2%[5]s %[2]s(@S,@D,@Z,P,C) :- #%[1]s(@S,@Z,C1), %[2]s(@Z,@D,@_Z2,P2,C2),
	f_member(P2, S) == false, C := C1 + C2, P := f_concatPath(S, P2).
sp3%[5]s %[3]s(@S,@D,min<C>) :- %[2]s(@S,@D,@_Z,_P,C).
sp4%[5]s %[4]s(@S,@D,P,C) :- %[3]s(@S,@D,C), %[2]s(@S,@D,@_Z,P,C).

query %[4]s(@S,@D,P,C).
`, r("link"), r("path"), r("spCost"), r("shortestPath"), sfx, pathKeys)
}

// Combine concatenates programs, keeping only the last query statement.
func Combine(srcs ...string) string {
	var b strings.Builder
	for i, s := range srcs {
		if i < len(srcs)-1 {
			s = stripQuery(s)
		}
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

func stripQuery(src string) string {
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "query ") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// MagicShortestPath is the magic-shortest-path query of Section 5.1.2:
// predicate reordering turns SP2 left-recursive (top-down exploration
// from the source), magicSrc seeds the search and magicDst filters the
// answer. pathDst tuples accumulate at each node they reach, keyed by
// (node, src, pathVector).
//
// The answer rules implement the reverse path return the paper describes
// for query-result caching (Section 5.2): once shortestPath is known at
// the destination, the answer hops backwards along the discovered path,
// and every node on the way caches its optimal suffix to the
// destination (subpaths of shortest paths are shortest).
func MagicShortestPath() string {
	return `
materialize(link, infinity, infinity, keys(1,2)).
materialize(magicSrc, infinity, infinity, keys(1)).
materialize(magicDst, infinity, infinity, keys(1)).
materialize(pathDst, infinity, infinity, keys(1,2,4)).
materialize(spCostD, infinity, infinity, keys(1,2)).
materialize(shortestPathD, infinity, infinity, keys(1,2,3,4)).
materialize(answer, infinity, infinity, keys(1,2,3,4,5,6)).
materialize(cache, infinity, infinity, keys(1,2)).

sd1 pathDst(@D,@S,@S,P,C) :- magicSrc(@S), #link(@S,@D,C),
	P := f_concatPath(S, [D]).
sd2 pathDst(@D,@S,@Z,P,C) :- pathDst(@Z,@S,@_Z1,P1,C1), #link(@Z,@D,C2),
	f_member(P1, D) == false, C := C1 + C2, P := f_append(P1, D).
sd3 spCostD(@D,@S,min<C>) :- magicDst(@D), pathDst(@D,@S,@_Z,_P,C).
sd4 shortestPathD(@D,@S,P,C) :- spCostD(@D,@S,C), pathDst(@D,@S,@_Z,P,C).

// Answer return: hop backwards along the path vector toward the source.
// SC accumulates the suffix cost from the current node to the
// destination; every node on the reverse path caches it (subpaths of
// shortest paths are themselves shortest).
an1 answer(@D,@S,@D,P,C,SC) :- shortestPathD(@D,@S,P,C), SC := 0.
an2 answer(@Z,@S,@D,P,C,SC2) :- answer(@N,@S,@D,P,C,SC), #link(@N,@Z,C1),
	Z == f_prevHop(P, N), SC2 := SC + C1.
ca1 cache(@N,@D,SC) :- answer(@N,@_S,@D,_P,_C,SC).

query answer(@S2,@S2,@D,P,C,SC).
`
}

// CachedSourceRoute is the query program used for the magic-sets +
// caching experiment (Figure 11). It refines MagicShortestPath in three
// ways needed for many concurrent/sequential (src,dst) queries on one
// deployment:
//
//   - Each exploration tuple carries its query destination QD, so state
//     from different queries never interferes.
//   - localBest maintains the per-(node, src, query) minimum, giving
//     aggregate selections a handle to prune non-improving exploration
//     at every intermediate node (Bellman-Ford-style convergence).
//   - The hit1 rule answers directly from a cached suffix: exploration
//     reaching a node that already knows its best cost to QD returns
//     prefix + suffix without going further. The engine-level cache
//     prune (a StrandFilter on cs2) suppresses exploration past cache
//     hits, which is what makes caching save bandwidth (Section 5.2).
//
// With that prune the strategy is approximate: a cache row is a min
// over answers that may themselves be prefix + cached suffix, so a
// query can be answered along a route longer than its shortest one.
// Without the prune, exploration still reaches the destination, so the
// cheapest answer is the shortest route.
func CachedSourceRoute() string {
	return `
materialize(link, infinity, infinity, keys(1,2)).
materialize(magicQuery, infinity, infinity, keys(1,2)).
materialize(pathDst, infinity, infinity, keys(1,2,3,4)).
materialize(localBest, infinity, infinity, keys(1,2,3)).
materialize(spCostD, infinity, infinity, keys(1,2)).
materialize(shortestPathD, infinity, infinity, keys(1,2,3,4)).
materialize(answer, infinity, infinity, keys(1,2,3,4,5,6)).
materialize(cache, infinity, infinity, keys(1,2)).

cs1 pathDst(@D,@S,@QD,P,C) :- magicQuery(@S,@QD), #link(@S,@D,C),
	P := f_concatPath(S, [D]).
cs2 pathDst(@D,@S,@QD,P,C) :- pathDst(@Z,@S,@QD,P1,C1), #link(@Z,@D,C2),
	f_member(P1, D) == false, C := C1 + C2, P := f_append(P1, D).
cs3 localBest(@N,@S,@QD,min<C>) :- pathDst(@N,@S,@QD,_P,C).
cs4 spCostD(@D,@S,min<C>) :- pathDst(@D,@S,@D,_P,C).
cs5 shortestPathD(@D,@S,P,C) :- spCostD(@D,@S,C), pathDst(@D,@S,@D,P,C).

an1 answer(@D,@S,@D,P,C,SC) :- shortestPathD(@D,@S,P,C), SC := 0.
an2 answer(@Z,@S,@D,P,C,SC2) :- answer(@N,@S,@D,P,C,SC), #link(@N,@Z,C1),
	Z == f_prevHop(P, N), SC2 := SC + C1.
ca1 cache(@N,@D,min<SC>) :- answer(@N,@_S,@D,_P,_C,SC).
hit1 answer(@N,@S,@QD,P,C2,SC) :- pathDst(@N,@S,@QD,P,C), cache(@N,@QD,SC),
	C2 := C + SC.

query answer(@S2,@S2,@D,P,C,SC).
`
}

// Multicast builds a single-source multicast tree on top of the
// distance-vector routing state — the "application-level multicast"
// motivation of the paper's introduction. Every node that joined a group
// (member facts) picks its shortest-path next hop toward the root as its
// tree parent; parents learn their children (a link-restricted rule:
// a parent is always a neighbor) and count their fan-out. Packets
// forwarded down the tree follow child edges.
//
// Combine this source with ShortestPathDV("") and the same link facts.
func Multicast() string {
	return `
materialize(member, infinity, infinity, keys(1,2)).
materialize(parent, infinity, infinity, keys(1,2)).
materialize(child, infinity, infinity, keys(1,2,3)).

// A member's parent toward the root R is the next hop of its shortest
// path to R.
mc1 parent(@N,@R,@Z) :- member(@N,@R), shortestPath(@N,@R,P,_C),
	Z := f_nth(P, 1).

// Parents learn their children. The parent is by construction a
// neighbor, so the rule is link-restricted: the parent tuple joins the
// link whose far end is the parent.
mc2 child(@Z,@R,@N) :- #link(@N,@Z,_C), parent(@N,@R,@Z).

// Interior nodes of the tree are members too: grafting propagates
// toward the root so forwarding state exists along the whole branch.
mc3 member(@N,@R) :- child(@N,@R,@_C2).

// Fan-out per tree node.
mc4 fanout(@N,@R,count<C>) :- child(@N,@R,@C).

query child(@N,@R,@C).
`
}

// MemberFact declares that node joins the multicast group rooted at
// root.
func MemberFact(node, root string) val.Tuple {
	return val.NewTuple("member", val.NewAddr(node), val.NewAddr(root))
}

// MagicQueryFact seeds one (src, dst) query for CachedSourceRoute.
func MagicQueryFact(src, dst string) val.Tuple {
	return val.NewTuple("magicQuery", val.NewAddr(src), val.NewAddr(dst))
}

// LinkFact builds a link tuple for predicate pred.
func LinkFact(pred, src, dst string, cost float64) val.Tuple {
	return val.NewTuple(pred, val.NewAddr(src), val.NewAddr(dst), val.NewFloat(cost))
}

// Magic seed facts for MagicShortestPath.
func MagicSrcFact(src string) val.Tuple {
	return val.NewTuple("magicSrc", val.NewAddr(src))
}

// MagicDstFact seeds the destination filter.
func MagicDstFact(dst string) val.Tuple {
	return val.NewTuple("magicDst", val.NewAddr(dst))
}
