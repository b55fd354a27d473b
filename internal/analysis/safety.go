package analysis

import (
	"ndlog/internal/ast"
)

// checkSafety enforces range restriction beyond the Definition 6
// well-formedness pass: every variable occurrence in a rule must be
// bound by a positive body literal (a top-level argument of a body
// atom whose arity matches the predicate's canonical arity), or by an
// assignment whose inputs are themselves bound.
//
// This closes two holes the Definition 6 checks (Definition6) leave open:
//
//   - variables nested inside a body atom's argument expression
//     (q(@S, C1+C2)) were never checked at all;
//   - an atom whose arity conflicts with the predicate's canonical
//     arity can never match a tuple, so its "bindings" are vacuous —
//     a head variable bound only there is unsafe, yet passed silently.
//
// Occurrences the Definition 6 pass already reported (selections,
// assignments, and head variables with no binding at all) are not
// re-reported here.
func (c *collector) checkSafety(prog *ast.Program, sigs map[string]*predSig) {
	for _, r := range prog.Rules {
		name := ruleName(r)

		// strict: bound by a positive literal that can actually match.
		// loose: what the Definition 6 pass considered bound.
		strict := map[string]bool{}
		loose := map[string]bool{}
		for _, a := range r.Atoms() {
			matchable := sigs[a.Pred] != nil && sigs[a.Pred].arity == len(a.Args)
			for _, arg := range a.Args {
				if v, ok := arg.(*ast.Var); ok {
					loose[v.Name] = true
					if matchable {
						strict[v.Name] = true
					}
				}
			}
		}
		var asns []*ast.Assign
		for _, t := range r.Body {
			if asn, ok := t.(*ast.Assign); ok {
				asns = append(asns, asn)
				loose[asn.Var] = true
			}
		}
		// Assignments bind once their inputs are strictly bound;
		// iterate so chains resolve regardless of body order.
		for changed := true; changed; {
			changed = false
			for _, asn := range asns {
				if strict[asn.Var] {
					continue
				}
				ok := true
				for vname := range ast.Vars(asn.Expr) {
					if !strict[vname] {
						ok = false
						break
					}
				}
				if ok {
					strict[asn.Var] = true
					changed = true
				}
			}
		}

		reported := map[string]bool{}
		report := func(v *ast.Var, what string) {
			if strict[v.Name] || reported[v.Name] {
				return
			}
			reported[v.Name] = true
			c.errorf(v.Pos, CheckSafety, name,
				"%s %s is not bound by any positive body literal", what, v.Name)
		}

		// Nested occurrences inside body atom arguments: never checked
		// by the Definition 6 pass.
		for _, a := range r.Atoms() {
			for _, arg := range a.Args {
				if _, isVar := arg.(*ast.Var); isVar {
					continue
				}
				walkVars(arg, func(v *ast.Var) { report(v, "variable") })
			}
		}
		// Occurrences the Definition 6 pass checked only against its
		// looser bound set: report when loosely bound but vacuous.
		for _, arg := range r.Head.Args {
			walkVars(arg, func(v *ast.Var) {
				if loose[v.Name] {
					report(v, "head variable")
				}
			})
		}
		for _, t := range r.Body {
			switch x := t.(type) {
			case *ast.Select:
				walkVars(x.Cond, func(v *ast.Var) {
					if loose[v.Name] {
						report(v, "variable")
					}
				})
			case *ast.Assign:
				walkVars(x.Expr, func(v *ast.Var) {
					if loose[v.Name] {
						report(v, "variable")
					}
				})
			}
		}
	}
}
