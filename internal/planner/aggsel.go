package planner

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
)

// AggSelection describes an aggregate-selection opportunity
// (Section 5.1.1): a monotonic aggregate over SrcPred whose running
// state can prune SrcPred tuples that cannot contribute to the final
// answer. For the shortest-path query,
//
//	SP3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
//
// yields {SrcPred: path, AggPred: spCost, Func: min,
// GroupCols: [0 1], ValueCol: 4}: a new path tuple whose cost is not
// smaller than the current group minimum need not be stored or
// propagated.
type AggSelection struct {
	SrcPred   string
	AggPred   string
	Func      ast.AggFunc
	GroupCols []int // columns of SrcPred forming the aggregation group
	ValueCol  int   // column of SrcPred being aggregated
	// NotPruned says why the engine may not prune SrcPred: the function
	// is not min or max, or the first rule that defeats the safety proof
	// (see whyNotPrunable). It is empty when the proof holds, and every
	// selection on one SrcPred carries the same verdict.
	NotPruned string
	// aggCol is the aggregate's position in AggPred's head; the other
	// positions hold GroupCols' values, in order.
	aggCol int
}

// Prunable reports whether the engine may prune SrcPred: the aggregate
// is min or max (the monotonic ones) and the safety proof holds.
func (s AggSelection) Prunable() bool {
	return (s.Func == ast.AggMin || s.Func == ast.AggMax) && s.NotPruned == ""
}

// DetectAggSelections finds the aggregate selections of p — rules with
// a single aggregate head argument over a single body predicate whose
// group-by variables map positionally onto body columns — and proves,
// per source predicate, whether pruning it is safe. p should be the
// program the engine runs (Compile passes the localized one).
func DetectAggSelections(p *ast.Program) []AggSelection {
	var out []AggSelection
	for _, r := range p.Rules {
		sel, ok := detectOne(r)
		if ok {
			out = append(out, sel)
		}
	}
	for i := range out {
		s := &out[i]
		if s.Func != ast.AggMin && s.Func != ast.AggMax {
			s.NotPruned = s.Func.String() + " is neither min nor max"
			continue
		}
		s.NotPruned = whyNotPrunable(p, s.SrcPred, out)
	}
	return out
}

func detectOne(r *ast.Rule) (AggSelection, bool) {
	aggIdx := r.Head.AggregateIndex()
	if aggIdx < 0 {
		return AggSelection{}, false
	}
	atoms := r.Atoms()
	if len(atoms) != 1 {
		return AggSelection{}, false
	}
	src := atoms[0]
	// Map body variable name -> first column position.
	varCol := map[string]int{}
	for i, a := range src.Args {
		if v, ok := a.(*ast.Var); ok {
			if _, seen := varCol[v.Name]; !seen {
				varCol[v.Name] = i
			}
		}
	}
	sel := AggSelection{SrcPred: src.Pred, AggPred: r.Head.Pred, aggCol: aggIdx}
	for i, a := range r.Head.Args {
		if i == aggIdx {
			agg := a.(*ast.Agg)
			sel.Func = agg.Func
			col, ok := varCol[agg.Var]
			if !ok {
				return AggSelection{}, false
			}
			sel.ValueCol = col
			continue
		}
		v, ok := a.(*ast.Var)
		if !ok {
			return AggSelection{}, false
		}
		col, ok := varCol[v.Name]
		if !ok {
			return AggSelection{}, false
		}
		sel.GroupCols = append(sel.GroupCols, col)
	}
	return sel, true
}

// whyNotPrunable is the safety proof of DESIGN.md §11 "Which selections
// prune". The engine prunes a predicate, not a rule: a src tuple that
// improves none of src's aggregates is stored, but runs no trigger
// strands (Node.advertise). That loses no answer when every rule with
// an atom of src in its body is
//
//	(a) an aggregate rule: aggregate strands run before the verdict, so
//	    every aggregate still sees every tuple;
//	(b) a join back (joinsBack): only a tuple tied with its group's best
//	    joins, and the best already did; or
//	(c) a path-vector extension under min (extension).
//
// A rule with two atoms of src is none of these. It returns "" when
// the proof holds, else why it fails.
func whyNotPrunable(p *ast.Program, src string, all []AggSelection) string {
	var sels []AggSelection
	for _, s := range all {
		if s.SrcPred == src && (s.Func == ast.AggMin || s.Func == ast.AggMax) {
			sels = append(sels, s)
		}
	}
	pv := pathVectorCol(p, src)
	for _, r := range p.Rules {
		var at *ast.Atom
		for _, a := range r.Atoms() {
			if a.Pred != src {
				continue
			}
			if at != nil {
				return fmt.Sprintf("rule %s joins two %s atoms", ruleName(r), src)
			}
			at = a
		}
		if at == nil || r.Head.HasAggregate() || joinsBack(r, at, sels) {
			continue
		}
		if !slices.ContainsFunc(sels, func(s AggSelection) bool { return extension(r, at, s, pv) == "" }) {
			return fmt.Sprintf("rule %s %s", ruleName(r), extension(r, at, sels[0], pv))
		}
	}
	return ""
}

// joinsBack reports case (b): r also has an atom of one of src's
// aggregates whose group and value arguments are the same variables as
// src's group and value columns in at.
func joinsBack(r *ast.Rule, at *ast.Atom, sels []AggSelection) bool {
	for _, s := range sels {
		for _, a := range r.Atoms() {
			if a.Pred != s.AggPred || len(a.Args) != len(s.GroupCols)+1 {
				continue
			}
			same, g := true, 0
			for i, arg := range a.Args {
				col := s.ValueCol
				if i != s.aggCol {
					col, g = s.GroupCols[g], g+1
				}
				same = same && sameVar(arg, at.Args[col])
			}
			if same {
				return true
			}
		}
	}
	return false
}

func sameVar(a, b ast.Expr) bool {
	va, ok1 := a.(*ast.Var)
	vb, ok2 := b.(*ast.Var)
	return ok1 && ok2 && va.Name == vb.Name
}

// extension checks case (c) for the atom at of s.SrcPred in r: under
// min, the head a pruned tuple would derive differs from the one its
// group's best derives only in its path vector and by a cost no
// smaller. Three conditions make it so:
//   - src's value X reaches the head only as V := X + Y, Y bound by
//     another atom;
//   - src's path vector (pathVectorCol) reaches the head copied or
//     extended (analysis.PathExtension);
//   - src's other non-group columns hold variables that appear nowhere
//     else but the path vector's cycle guard (analysis.CycleGuard).
//
// Like Section 5.1.1 it assumes non-negative costs: when the guard
// rejects the best but passes a pruned tuple, the best's path already
// reaches the head's node at a cost no larger. It returns "" when r is
// such an extension, else why it is not.
func extension(r *ast.Rule, at *ast.Atom, s AggSelection, pv int) string {
	if s.Func != ast.AggMin {
		return "is not an aggregate or a join back, and only a min selection prunes through an extension"
	}
	// role classifies at's non-group variables: value, path or other.
	role := map[string]string{}
	for i, arg := range at.Args {
		if slices.Contains(s.GroupCols, i) {
			continue
		}
		v, ok := arg.(*ast.Var)
		if !ok || role[v.Name] != "" || slices.ContainsFunc(s.GroupCols, func(c int) bool { return sameVar(arg, at.Args[c]) }) {
			return fmt.Sprintf("filters column %d of %s", i, at.Pred)
		}
		switch i {
		case s.ValueCol:
			role[v.Name] = "value"
		case pv:
			role[v.Name] = "path"
		default:
			role[v.Name] = "other"
		}
	}
	var carried []string
	for _, arg := range r.Head.Args {
		for _, v := range slices.Sorted(maps.Keys(ast.Vars(arg))) {
			if role[v] != "" && role[v] != "path" {
				carried = append(carried, v)
			}
		}
	}
	if len(carried) > 0 {
		return fmt.Sprintf("carries non-group %s into its head", strings.Join(carried, ", "))
	}
	// first returns the first of vars that is one of at's non-group
	// variables in a role other than those allowed.
	first := func(vars map[string]bool, allowed ...string) string {
		for _, v := range slices.Sorted(maps.Keys(vars)) {
			if role[v] != "" && !slices.Contains(allowed, role[v]) {
				return v
			}
		}
		return ""
	}

	// carry maps the variables that bring src's value or path vector to
	// the head to that role; def holds the term that computes each.
	carry := map[string]string{}
	def := map[string]ast.Term{}
	for v, ro := range role {
		if ro == "path" {
			carry[v] = ro
		}
	}
	for _, t := range r.Body {
		if t == ast.Term(at) {
			continue
		}
		vars := termVars(t)
		switch t := t.(type) {
		case *ast.Assign:
			if y := sumWith(t, role); y != "" && boundBy(r, at, y) {
				carry[t.Var], def[t.Var] = "value", t
				continue
			}
			if _, _, ok := analysis.PathExtension(t); ok && first(vars) != "" {
				if v := first(vars, "path"); v != "" {
					return fmt.Sprintf("extends a path vector with non-group %s", v)
				}
				carry[t.Var], def[t.Var] = "path", t
				continue
			}
		case *ast.Select:
			if list, ok := analysis.CycleGuard(t); ok && role[list] == "path" {
				if v := first(vars, "path", "other"); v != "" {
					return fmt.Sprintf("guards a path vector with non-group %s", v)
				}
				continue
			}
		}
		if v := first(vars); v != "" {
			return fmt.Sprintf("reads non-group %s in %s", v, t)
		}
	}
	// A computed carrier feeds the head alone: a guard or join on it
	// would treat the best and a pruned tuple differently.
	for _, t := range r.Body {
		for _, v := range slices.Sorted(maps.Keys(termVars(t))) {
			if d, ok := def[v]; ok && d != t {
				return fmt.Sprintf("reads %s, computed from %s, in %s", v, at.Pred, t)
			}
		}
	}
	reached := map[string]bool{}
	for _, arg := range r.Head.Args {
		for v := range ast.Vars(arg) {
			reached[carry[v]] = true
		}
	}
	switch {
	case !reached["value"]:
		return fmt.Sprintf("does not bring %s's value into its head as V := X + Y", at.Pred)
	case !reached["path"]:
		return fmt.Sprintf("does not bring %s's path vector into its head", at.Pred)
	}
	return ""
}

// sumWith returns Y when t is V := X + Y (or Y + X), X the value
// variable of role and Y a variable outside role.
func sumWith(t *ast.Assign, role map[string]string) string {
	sum, ok := t.Expr.(*ast.BinOp)
	if !ok || sum.Op != ast.OpAdd {
		return ""
	}
	for _, xy := range [][2]ast.Expr{{sum.L, sum.R}, {sum.R, sum.L}} {
		x, ok1 := xy[0].(*ast.Var)
		y, ok2 := xy[1].(*ast.Var)
		if ok1 && ok2 && role[x.Name] == "value" && role[y.Name] == "" {
			return y.Name
		}
	}
	return ""
}

// boundBy reports whether an atom of r other than at binds name.
func boundBy(r *ast.Rule, at *ast.Atom, name string) bool {
	for _, a := range r.Atoms() {
		if a != at && termVars(a)[name] {
			return true
		}
	}
	return false
}

// termVars returns the variables a body term mentions.
func termVars(t ast.Term) map[string]bool {
	out := map[string]bool{}
	switch t := t.(type) {
	case *ast.Atom:
		for _, a := range t.Args {
			maps.Copy(out, ast.Vars(a))
		}
	case *ast.Assign:
		out = ast.Vars(t.Expr)
		out[t.Var] = true
	case *ast.Select:
		out = ast.Vars(t.Cond)
	}
	return out
}

// pathVectorCol returns src's path vector: the first column that every
// rule deriving src fills with a path extension (analysis.PathExtension),
// or -1 when there is none or no rule derives src.
func pathVectorCol(p *ast.Program, src string) int {
	var cols []int
	derived := false
	for _, r := range p.Rules {
		if r.Head.Pred != src {
			continue
		}
		ext := map[string]bool{}
		for _, t := range r.Body {
			if asn, _, ok := analysis.PathExtension(t); ok {
				ext[asn.Var] = true
			}
		}
		var here []int
		for i, arg := range r.Head.Args {
			if v, ok := arg.(*ast.Var); ok && ext[v.Name] && (!derived || slices.Contains(cols, i)) {
				here = append(here, i)
			}
		}
		cols, derived = here, true
	}
	if len(cols) == 0 {
		return -1
	}
	return cols[0]
}

// ruleName is r's label, or its head predicate when unlabelled.
func ruleName(r *ast.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}
