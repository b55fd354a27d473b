package engine

import (
	"fmt"

	"ndlog/internal/val"
)

// tupleSet is a set of tuples keyed by Tuple.Hash with collision chains
// resolved by Tuple.Equal — the engine-side counterpart of the storage
// layer's hash-first keying (no string keys).
type tupleSet map[uint64][]val.Tuple

func (s tupleSet) has(t val.Tuple) bool {
	for _, u := range s[t.Hash()] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// add inserts t, reporting whether it was newly added.
func (s tupleSet) add(t val.Tuple) bool {
	h := t.Hash()
	for _, u := range s[h] {
		if u.Equal(t) {
			return false
		}
	}
	s[h] = append(s[h], t)
	return true
}

func (s tupleSet) remove(t val.Tuple) {
	h := t.Hash()
	chain := s[h]
	for i, u := range chain {
		if u.Equal(t) {
			chain[i] = chain[len(chain)-1]
			chain = chain[:len(chain)-1]
			break
		}
	}
	if len(chain) == 0 {
		delete(s, h)
	} else {
		s[h] = chain
	}
}

func (s tupleSet) len() int {
	n := 0
	for _, chain := range s {
		n += len(chain)
	}
	return n
}

// each visits every tuple; the set must not be mutated during the walk.
func (s tupleSet) each(fn func(val.Tuple)) {
	for _, chain := range s {
		for _, t := range chain {
			fn(t)
		}
	}
}

// DeleteDRed retracts a base tuple using the delete-and-rederive (DRed)
// strategy of Gupta, Mumick and Subrahmanian. The count algorithm the
// paper adopts (Section 4) is exact only for acyclic derivations — the
// situation its path-vector programs guarantee. For programs with
// genuinely cyclic derivations (e.g. plain transitive closure on cyclic
// graphs), counts can become self-supporting and deletions stall; DRed
// handles those:
//
//	phase 1 (over-delete): remove the base tuple and, transitively,
//	every tuple with a derivation that used a removed tuple — ignoring
//	alternative derivations;
//	phase 2 (re-derive): re-insert every over-deleted tuple that is
//	still derivable from the surviving state, and propagate those
//	insertions to a fixpoint.
//
// DRed treats derived tables as sets (re-derived tuples get count 1),
// so a program should be maintained either with DRed or with counts,
// not a mixture. Aggregate rules are not supported (the paper's
// aggregate programs are exactly the acyclic ones where counts work).
// DRed is a centralized extension; the paper's distributed setting
// never needs it.
func (c *Central) DeleteDRed(t val.Tuple) error {
	n := c.node
	if len(n.aggs) > 0 {
		return fmt.Errorf("engine: DRed does not support aggregate rules")
	}

	// Phase 1: over-delete. Every tuple reached through any derivation
	// chain from t is removed, whatever its count said.
	overdeleted := tupleSet{}
	removed := tupleSet{}
	queue := []val.Tuple{t}
	// One context (and its slot environment) serves the whole walk; only
	// the deleted tuple changes per queue item.
	ctx := &joinCtx{ltBefore: noLimit, leAfter: noLimit, res: n.res, hasDeleted: true}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		if removed.has(u) {
			continue
		}
		tbl := n.cat.Get(u.Pred)
		e, ok := tbl.Get(u)
		if !ok || !e.Tuple.Equal(u) {
			continue
		}
		tbl.DeleteByKey(u)
		removed.add(u)
		if !u.Equal(t) {
			overdeleted.add(u)
		}
		ctx.deleted = u
		for _, st := range n.prog.strands[u.Pred] {
			if st.isAgg {
				continue
			}
			err := st.run(ctx, u, func(d derived) {
				queue = append(queue, d.tuple)
			})
			if err != nil {
				return fmt.Errorf("engine: dred over-delete: %w", err)
			}
		}
	}

	// Phase 2: re-derive. Repeatedly scan every rule against the
	// surviving state; an over-deleted head that is derivable again goes
	// back in (through the normal insertion path, so its consequences
	// re-derive too). The over-deleted set shrinks monotonically.
	for {
		rederived := c.rederiveOnce(overdeleted)
		if len(rederived) == 0 {
			return nil
		}
		for _, h := range rederived {
			overdeleted.remove(h)
			n.Push(Insert(h))
		}
		c.Fixpoint()
		// Insertions may have re-derived further over-deleted tuples via
		// the normal strands; drop any that are now present.
		var present []val.Tuple
		overdeleted.each(func(h val.Tuple) {
			if n.cat.Get(h.Pred).Contains(h) {
				present = append(present, h)
			}
		})
		for _, h := range present {
			overdeleted.remove(h)
		}
	}
}

// rederiveOnce evaluates every rule once over the current state
// (Node.sweepDerivable — the sweep is shared with migration imports)
// and returns the over-deleted head tuples it can rebuild.
func (c *Central) rederiveOnce(overdeleted tupleSet) []val.Tuple {
	var out []val.Tuple
	found := tupleSet{}
	c.node.sweepDerivable(func(d derived) {
		if overdeleted.has(d.tuple) && found.add(d.tuple) {
			out = append(out, d.tuple)
		}
	})
	return out
}
