package analysis

import (
	"ndlog/internal/ast"
)

// checkLifetime runs the soft/hard lifetime dataflow over the predicate
// dependency graph. The lattice has two points, hard < soft ("soft"
// taints); a predicate's derived contents are soft if any rule deriving
// it reads a soft predicate, transitively. Deriving a declared
// hard-state table (materialize lifetime "infinity") from soft state is
// the PR 5 bug class — when the soft tuple expires, nothing retracts
// the hard derivation, so refreshes inflate derivation counts past
// retractability. Every rule with a hard head and a soft-tainted body
// is an error.
func (c *collector) checkLifetime(prog *ast.Program) {
	life := map[string]float64{}
	for _, m := range prog.Materialized {
		life[m.Name] = m.Lifetime
	}
	isSoft := func(p string) bool { l, ok := life[p]; return ok && l >= 0 }
	isHard := func(p string) bool { l, ok := life[p]; return ok && l < 0 }

	// tainted maps a predicate to the soft-state origin it (transitively)
	// depends on.
	tainted := map[string]string{}
	for p := range life {
		if isSoft(p) {
			tainted[p] = p
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			if _, done := tainted[r.Head.Pred]; done {
				continue
			}
			for _, a := range r.Atoms() {
				if origin, ok := tainted[a.Pred]; ok {
					tainted[r.Head.Pred] = origin
					changed = true
					break
				}
			}
		}
	}

	for _, r := range prog.Rules {
		if !isHard(r.Head.Pred) {
			continue
		}
		for _, a := range r.Atoms() {
			origin, ok := tainted[a.Pred]
			if !ok {
				continue
			}
			if origin == a.Pred {
				c.errorf(r.Pos, CheckLifetime, ruleName(r),
					"hard-state predicate %s derived from soft-state predicate %s (lifetime %gs); state downstream of soft state must be soft",
					r.Head.Pred, a.Pred, life[origin])
			} else {
				c.errorf(r.Pos, CheckLifetime, ruleName(r),
					"hard-state predicate %s derived from %s, which depends on soft-state predicate %s (lifetime %gs); state downstream of soft state must be soft",
					r.Head.Pred, a.Pred, origin, life[origin])
			}
			break // one report per rule
		}
	}
	c.checkMixedSupport(prog, life)
}

// checkMixedSupport rejects an undeclared predicate that holds both soft
// and hard rows. The engine gives a derived row the earliest deadline of
// the soft rows it joined (DESIGN.md §17), so a non-aggregate rule over
// soft state (lifetime > 0; an event is never stored and lapses nowhere)
// fills an undeclared head with soft rows, which refresh instead of
// counting. A hard derivation of the same head — a rule over hard state
// or events only, an aggregate rule (its head keeps the table's own
// lifetime, and an undeclared table has none), or a fact — would give a
// row count-maintained support as well, and a row holds a count or a
// deadline, not both: retracting the hard support would take the row
// while its soft support still stands. Declare the predicate soft, or
// split the two supports into two predicates.
func (c *collector) checkMixedSupport(prog *ast.Program, life map[string]float64) {
	soft := map[string]string{} // predicate -> soft-state origin
	for p, l := range life {
		if l > 0 {
			soft[p] = p
		}
	}
	softBody := func(r *ast.Rule) (string, bool) {
		if r.Head.HasAggregate() {
			return "", false
		}
		for _, a := range r.Atoms() {
			if origin, ok := soft[a.Pred]; ok {
				return origin, true
			}
		}
		return "", false
	}
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			if _, declared := life[r.Head.Pred]; declared {
				continue
			}
			if _, done := soft[r.Head.Pred]; done {
				continue
			}
			if origin, ok := softBody(r); ok {
				soft[r.Head.Pred] = origin
				changed = true
			}
		}
	}
	for _, r := range prog.Rules {
		origin, ok := soft[r.Head.Pred]
		if _, declared := life[r.Head.Pred]; declared || !ok {
			continue
		}
		if _, ok := softBody(r); !ok {
			c.errorf(r.Pos, CheckLifetime, ruleName(r),
				"undeclared predicate %s derived here from hard state and elsewhere from soft-state predicate %s (lifetime %gs); a row holds a count or a deadline, not both: declare %s soft or split its supports",
				r.Head.Pred, origin, life[origin], r.Head.Pred)
		}
	}
	for i, f := range prog.Facts {
		origin, ok := soft[f.Pred]
		if _, declared := life[f.Pred]; declared || !ok {
			continue
		}
		c.errorf(prog.FactAt(i), CheckLifetime, "",
			"fact of undeclared predicate %s, which is derived from soft-state predicate %s (lifetime %gs); a row holds a count or a deadline, not both: declare %s soft or split its supports",
			f.Pred, origin, life[origin], f.Pred)
	}
}
