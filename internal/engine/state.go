package engine

// Node state export for migration and snapshots. A node's recoverable
// state is what cannot be rebuilt from elsewhere: base (EDB) hard-state
// rows with their derivation counts, and soft-state rows with the
// lifetime they have left. Both are insert deltas already — a count is
// repeated insertions, a remaining lifetime is Delta.Life — so the
// export is a delta batch and travels in the wire codec (AppendDeltas /
// DecodeDeltasInto). Derived hard state is a view: the importer re-derives
// it by draining the imported facts, and the neighbours' RederiveFor
// sweeps rebuild what flows in from them, instead of trusting shipped
// view contents whose supporting facts live on other nodes.

import (
	"slices"

	"ndlog/internal/table"
)

// Export appends the node's recoverable state to dst as insert deltas,
// in Tuple order, so equal states encode byte-equal: each base hard row
// (a predicate no rule derives) once per derivation count, and each
// soft row once, carrying the lifetime it has left against the node's
// clock (Delta.Life). A soft row whose lifetime has run out is left out.
// Pushing the result into a fresh node rebuilds the same rows: a soft
// row lapses at the importer's clock + Life, and transit time is not
// subtracted (no cross-process clock measures it; a rebalance pause
// bounds it). Drivers must call it under the node's single-threading
// discipline.
//
// Constraint: base facts seeded into a predicate that also appears as
// a rule head are indistinguishable from derived rows and are NOT
// exported — such programs are not migration-safe. The paper's
// programs keep EDB and IDB predicates disjoint, which is what this
// relies on.
func (n *Node) Export(dst []Delta) []Delta {
	var rows []*table.Entry
	for _, name := range n.cat.Names() {
		tbl := n.cat.Get(name)
		if tbl.TTL() < 0 && n.prog.derived[name] {
			continue // derived hard state: rederived at the destination
		}
		tbl.Scan(func(e *table.Entry) bool {
			rows = append(rows, e)
			return true
		})
	}
	slices.SortFunc(rows, func(a, b *table.Entry) int { return a.Tuple.Compare(b.Tuple) })
	for _, e := range rows {
		d := Insert(e.Tuple)
		if e.Expires < 0 {
			for range e.Count {
				dst = append(dst, d)
			}
			continue
		}
		var ok bool
		if d.Life, ok = lifeFor(n.now, e.Expires); ok {
			dst = append(dst, d)
		}
	}
	return dst
}

// sweepDerivable evaluates every non-aggregate rule once over the
// node's stored state — a full evaluation, not a delta — invoking fn
// for each derivable head (with its location and deadline), rule by rule
// in the program's fixed sweep order, each rule's first atom's rows in
// Tuple order. Evaluation errors skip the binding, as the insert path
// would. fn must not mutate the node's tables; queueing deltas is fine.
func (n *Node) sweepDerivable(fn func(d derived)) {
	ctx := &joinCtx{ltBefore: noLimit, leAfter: noLimit, res: n.res, now: n.now}
	var rows []*table.Entry
	for _, st := range n.prog.sweep {
		rows = rows[:0]
		n.cat.Get(st.atoms[0].Pred).Scan(func(e *table.Entry) bool {
			rows = append(rows, e)
			return true
		})
		slices.SortFunc(rows, func(a, b *table.Entry) int { return a.Tuple.Compare(b.Tuple) })
		for _, e := range rows {
			ctx.deadline = deadlineOf(e)
			_ = st.run(ctx, e.Tuple, fn)
		}
	}
}

// RederiveFor sweeps the node's stored state (a full evaluation of
// every non-aggregate rule) and returns every derivable head homed at
// one of the dst nodes — one OutDelta per live derivation, so a
// freshly migrated destination reconstructs exact derivation counts.
// This is the neighbor-side half of a migration: a moved node's
// incoming derived state (including the localizer's shipped copies)
// lives in its neighbors' join state, and hard-state duplicates do
// not re-trigger strands, so only an explicit sweep can rebuild it.
// Aggregate heads are not swept; the paper's programs home aggregates
// where their inputs live, so they rebuild incrementally from the
// swept inputs.
func (n *Node) RederiveFor(dsts map[string]bool) []OutDelta {
	if len(dsts) == 0 || dsts[n.id] {
		return nil
	}
	var out []OutDelta
	n.sweepDerivable(func(d derived) {
		if !dsts[d.loc] || d.loc == n.id {
			return
		}
		if delta, ok := n.headDelta(d, +1); ok {
			out = append(out, OutDelta{Dst: d.loc, Delta: delta})
		}
	})
	return out
}
