package analysis

import (
	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// checkCountCycles warns where the count algorithm (Section 4) can fail
// to retract. It is exact only on acyclic derivations: on cyclic data —
// a transitive closure over a cycle of edges — the tuples of a
// recursive hard-state predicate can support each other, and deleting
// the base tuple that started them leaves them alive. The paper's
// programs cut every such cycle with a path vector: a rule that extends
// a list P into its head and requires f_member(P, X) == false never
// derives a tuple its own derivation went through. Rules with that
// guard are taken to cut the cycle; each recursive group of hard-state
// predicates still closed by a cycle of unguarded rules is reported
// once, at its first such rule. Soft state (refreshed, not counted) and
// events (never stored) take no part.
func (c *collector) checkCountCycles(prog *ast.Program) {
	life := map[string]float64{}
	for _, m := range prog.Materialized {
		life[m.Name] = m.Lifetime
	}
	hard := func(p string) bool { l, ok := life[p]; return !ok || l < 0 }

	// succ holds the dependency edges body → head of the unguarded rules
	// between hard-state predicates.
	succ := map[string][]string{}
	var unguarded []*ast.Rule
	for _, r := range prog.Rules {
		if !hard(r.Head.Pred) || pathVectorGuarded(r) {
			continue
		}
		unguarded = append(unguarded, r)
		for _, a := range r.Atoms() {
			if hard(a.Pred) {
				succ[a.Pred] = append(succ[a.Pred], r.Head.Pred)
			}
		}
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		for stack := []string{from}; len(stack) > 0; {
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if p == to {
				return true
			}
			for _, q := range succ[p] {
				if !seen[q] {
					seen[q] = true
					stack = append(stack, q)
				}
			}
		}
		return false
	}

	reported := map[string]bool{}
	for _, r := range unguarded {
		head := r.Head.Pred
		if reported[head] {
			continue
		}
		for _, a := range r.Atoms() {
			if !hard(a.Pred) || !reaches(head, a.Pred) {
				continue
			}
			c.warnf(r.Pos, CheckCountCycle, ruleName(r),
				"hard-state predicate %s is recursive through %s with no path-vector guard (f_member(P, X) == false on a list the head extends); on cyclic data its tuples can support each other and count-based deletion cannot retract them",
				head, a.Pred)
			for p := range succ {
				if reaches(head, p) && reaches(p, head) {
					reported[p] = true
				}
			}
			break
		}
	}
}

// pathVectorGuarded reports whether r carries a path-vector guard: a
// selection f_member(P, X) == false on a list P that an assignment
// extends (f_concatPath or f_append) into a head variable.
func pathVectorGuarded(r *ast.Rule) bool {
	head := map[string]bool{}
	for _, arg := range r.Head.Args {
		if v, ok := arg.(*ast.Var); ok {
			head[v.Name] = true
		}
	}
	extended := map[string]bool{}
	for _, t := range r.Body {
		asn, ok := t.(*ast.Assign)
		if !ok || !head[asn.Var] {
			continue
		}
		if call, ok := asn.Expr.(*ast.Call); ok && (call.Name == "f_concatPath" || call.Name == "f_append") {
			for _, arg := range call.Args {
				if v, ok := arg.(*ast.Var); ok {
					extended[v.Name] = true
				}
			}
		}
	}
	for _, t := range r.Body {
		sel, ok := t.(*ast.Select)
		if !ok {
			continue
		}
		eq, ok := sel.Cond.(*ast.BinOp)
		if !ok || eq.Op != ast.OpEq {
			continue
		}
		member, ok := eq.L.(*ast.Call)
		if !ok || member.Name != "f_member" || len(member.Args) != 2 {
			continue
		}
		list, ok := member.Args[0].(*ast.Var)
		no, isConst := eq.R.(*ast.Const)
		if ok && extended[list.Name] && isConst && no.Value.Kind() == val.KindBool && !no.Value.Bool() {
			return true
		}
	}
	return false
}
