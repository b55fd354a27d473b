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
// CycleGuard on a list P that a PathExtension extends into a head
// variable.
func pathVectorGuarded(r *ast.Rule) bool {
	head := map[string]bool{}
	for _, arg := range r.Head.Args {
		if v, ok := arg.(*ast.Var); ok {
			head[v.Name] = true
		}
	}
	extended := map[string]bool{}
	for _, t := range r.Body {
		if asn, call, ok := PathExtension(t); ok && head[asn.Var] {
			for _, arg := range call.Args {
				if v, ok := arg.(*ast.Var); ok {
					extended[v.Name] = true
				}
			}
		}
	}
	for _, t := range r.Body {
		if list, ok := CycleGuard(t); ok && extended[list] {
			return true
		}
	}
	return false
}

// PathExtension reports whether t extends a path vector: an assignment
// V := f_concatPath(...) or V := f_append(...).
func PathExtension(t ast.Term) (*ast.Assign, *ast.Call, bool) {
	asn, ok := t.(*ast.Assign)
	if !ok {
		return nil, nil, false
	}
	call, ok := asn.Expr.(*ast.Call)
	if !ok || call.Name != "f_concatPath" && call.Name != "f_append" {
		return nil, nil, false
	}
	return asn, call, true
}

// CycleGuard reports whether t is a path vector's cycle guard, the
// selection f_member(P, X) == false, and returns the name of the list
// variable P.
func CycleGuard(t ast.Term) (string, bool) {
	sel, ok := t.(*ast.Select)
	if !ok {
		return "", false
	}
	eq, ok := sel.Cond.(*ast.BinOp)
	if !ok || eq.Op != ast.OpEq {
		return "", false
	}
	member, ok := eq.L.(*ast.Call)
	if !ok || member.Name != "f_member" || len(member.Args) != 2 {
		return "", false
	}
	list, ok := member.Args[0].(*ast.Var)
	no, isConst := eq.R.(*ast.Const)
	if !ok || !isConst || no.Value.Kind() != val.KindBool || no.Value.Bool() {
		return "", false
	}
	return list.Name, true
}
