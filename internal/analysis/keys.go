package analysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"ndlog/internal/ast"
)

// Key is a predicate's primary key as the engine applies it: Cols are the
// 0-based key columns, nil for a whole-row key; Inferred marks a key the
// rules imply rather than a materialize declaration.
type Key struct {
	Cols     []int
	Inferred bool
}

func (k Key) String() string {
	if k.Cols == nil {
		return "whole row"
	}
	parts := make([]string, len(k.Cols))
	for i, c := range k.Cols {
		parts[i] = fmt.Sprint(c)
	}
	s := "pk(" + strings.Join(parts, ",") + ")"
	if k.Inferred {
		s += " (inferred)"
	}
	return s
}

// injective lists the builtins whose result determines every argument:
// the two path-vector constructors, which put their arguments into the
// list they build (f_concatPath(s, [z,d]) = [s,z,d]).
var injective = map[string]bool{"f_concatPath": true, "f_append": true}

// Keys returns the key of every predicate prog declares, derives or
// reads: its declared key when narrower than the row; else a narrower
// key its rules imply, marked Inferred (DESIGN.md §14, "Keys the rules
// imply"); else the whole row.
//
// A key is inferred for a predicate that is stored hard state with no
// size bound — declared so, or undeclared and not fed by soft state —
// carries no base facts, and has exactly one deriving rule, a
// non-aggregate one over stored hard state. The rule's functional
// dependencies are the keys of its body atoms (each atom's location
// column included: a table holds one node's rows) and its assignments
// (an injective builtin's result determines its arguments as well). The
// key is the set of head columns left when columns are dropped, from the
// last, while what remains still determines every head column. The head
// relation satisfies it at every instant, because every body table
// enforces its own key.
func Keys(prog *ast.Program) map[string]Key {
	ks := newKeyState(prog)
	inferred := ks.infer()
	out := map[string]Key{}
	for p := range ks.arity {
		out[p] = Key{Cols: ks.keys[p], Inferred: inferred[p]}
	}
	for p := range ks.decl {
		out[p] = Key{Cols: ks.keys[p], Inferred: inferred[p]}
	}
	return out
}

// keyState is the working state of key inference over one program.
type keyState struct {
	arity map[string]int
	decl  map[string]*ast.TableDecl
	// keys holds each predicate's current key columns, nil for the whole
	// row: declared keys first, inferred ones as they are found.
	keys  map[string][]int
	rules map[string][]*ast.Rule
	facts map[string]bool
	// soft marks predicates whose rows can carry a deadline or are never
	// stored: declared soft state and events, and undeclared predicates a
	// non-aggregate rule derives from them.
	soft map[string]bool
}

func newKeyState(prog *ast.Program) *keyState {
	ks := &keyState{arity: map[string]int{}, decl: map[string]*ast.TableDecl{},
		keys: map[string][]int{}, rules: map[string][]*ast.Rule{}, facts: map[string]bool{}, soft: map[string]bool{}}
	for _, r := range prog.Rules {
		ks.arity[r.Head.Pred] = len(r.Head.Args)
		ks.rules[r.Head.Pred] = append(ks.rules[r.Head.Pred], r)
		for _, t := range r.Body {
			if a, ok := t.(*ast.Atom); ok {
				ks.arity[a.Pred] = len(a.Args)
			}
		}
	}
	last := ""
	for _, f := range prog.Facts {
		if f.Pred != last { // facts come in runs of one predicate
			ks.arity[f.Pred] = len(f.Fields)
			ks.facts[f.Pred] = true
			last = f.Pred
		}
	}
	for _, d := range prog.Materialized {
		ks.decl[d.Name] = d
		if d.Lifetime >= 0 {
			ks.soft[d.Name] = true
		}
	}
	for p, d := range ks.decl {
		if arity, ok := ks.arity[p]; len(d.Keys) > 0 && (!ok || narrower(d.Keys, arity)) {
			ks.keys[p] = d.Keys
		}
	}
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			h := r.Head.Pred
			if !ks.soft[h] && ks.decl[h] == nil && !r.Head.HasAggregate() && ks.softBody(r) {
				ks.soft[h] = true
				changed = true
			}
		}
	}
	return ks
}

// softBody reports whether a body atom of r is soft.
func (ks *keyState) softBody(r *ast.Rule) bool {
	for _, t := range r.Body {
		if a, ok := t.(*ast.Atom); ok && ks.soft[a.Pred] {
			return true
		}
	}
	return false
}

// narrower reports whether key columns keys name fewer than all arity
// columns. (A declared predicate no rule or fact uses has no known arity:
// its declared key is taken as written.)
func narrower(keys []int, arity int) bool {
	for c := range arity {
		if !slices.Contains(keys, c) {
			return true
		}
	}
	return false
}

// candidate returns the one rule that may give p an inferred key, or nil.
func (ks *keyState) candidate(p string) *ast.Rule {
	d := ks.decl[p]
	if ks.keys[p] != nil || ks.facts[p] || ks.soft[p] || d != nil && d.MaxSize > 0 || len(ks.rules[p]) != 1 {
		return nil
	}
	r := ks.rules[p][0]
	if r.Head.HasAggregate() || ks.softBody(r) {
		return nil
	}
	return r
}

// infer finds every inferable key, using keys inferred on one pass as
// dependencies on the next, and reports which predicates got one.
func (ks *keyState) infer() map[string]bool {
	inferred := map[string]bool{}
	var preds []string
	for p := range ks.rules {
		if ks.candidate(p) != nil {
			preds = append(preds, p)
		}
	}
	sort.Strings(preds)
	for changed := len(preds) > 0; changed; {
		changed = false
		for _, p := range preds {
			r := ks.candidate(p)
			if r == nil {
				continue
			}
			if key := ks.ruleKey(r); key != nil {
				ks.keys[p] = key
				inferred[p] = true
				changed = true
			}
		}
	}
	return inferred
}

// ruleKey returns the head columns left when columns are dropped, from
// the last, while the rest still determine every head column under r's
// dependencies; nil when none can be dropped. The location column stays
// in the key, as in every key the shipped programs declare.
func (ks *keyState) ruleKey(r *ast.Rule) []int {
	rd := ks.deps(r)
	if rd == nil {
		return nil
	}
	n := len(r.Head.Args)
	key := make([]int, 0, n)
	for c := n - 1; c > 0; c-- {
		var rest uint64
		for k := range c {
			rest |= rd.cols[k]
		}
		for _, k := range key {
			rest |= rd.cols[k]
		}
		if rd.need&^rd.closure(rest) != 0 {
			key = append(key, c)
		}
	}
	key = append(key, 0)
	slices.Sort(key)
	if len(key) == n {
		return nil
	}
	return key
}

// ruleDeps is one rule's functional dependencies over its variables,
// numbered in order of appearance so that a set of them is a bit set.
type ruleDeps struct {
	names []string
	// fds are the dependencies: once every variable in from is known, so
	// is every one in to. A body atom whose table has a key fixes all its
	// variables from those at its key columns and its location column (a
	// table holds one node's rows); an assignment fixes its variable from
	// its expression's, and an injective builtin's result fixes its
	// variable arguments too.
	fds []struct{ from, to uint64 }
	// cols[c] is what head column c fixes when known: a plain variable,
	// or an injective builtin's variable arguments; need is every head
	// variable.
	cols []uint64
	need uint64
}

// deps numbers r's variables and lists its dependencies; nil when r has
// more variables than a bit set holds.
func (ks *keyState) deps(r *ast.Rule) *ruleDeps {
	idx := map[string]int{}
	rd := &ruleDeps{}
	num := func(name string) uint64 {
		i, ok := idx[name]
		if !ok {
			i = len(rd.names)
			idx[name] = i
			rd.names = append(rd.names, name)
		}
		if i >= 64 {
			return 0
		}
		return 1 << i
	}
	set := func(e ast.Expr) uint64 {
		var m uint64
		walkVars(e, func(v *ast.Var) { m |= num(v.Name) })
		return m
	}
	args := func(c *ast.Call) uint64 {
		var m uint64
		for _, a := range c.Args {
			if v, ok := a.(*ast.Var); ok {
				m |= num(v.Name)
			}
		}
		return m
	}
	for _, arg := range r.Head.Args {
		var fixes uint64
		switch x := arg.(type) {
		case *ast.Var:
			fixes = set(x)
		case *ast.Call:
			if injective[x.Name] {
				fixes = args(x)
			}
		}
		rd.cols = append(rd.cols, fixes)
		rd.need |= set(arg)
	}
	for _, t := range r.Body {
		switch x := t.(type) {
		case *ast.Atom:
			cols := ks.keys[x.Pred]
			if cols == nil {
				continue
			}
			var from, to uint64
			for i, arg := range x.Args {
				m := set(arg)
				if i == 0 || slices.Contains(cols, i) {
					from |= m
				}
				to |= m
			}
			rd.fds = append(rd.fds, struct{ from, to uint64 }{from, to})
		case *ast.Assign:
			v := num(x.Var)
			rd.fds = append(rd.fds, struct{ from, to uint64 }{set(x.Expr), v})
			if c, ok := x.Expr.(*ast.Call); ok && injective[c.Name] {
				rd.fds = append(rd.fds, struct{ from, to uint64 }{v, args(c)})
			}
		}
	}
	if len(rd.names) > 64 {
		return nil
	}
	return rd
}

// closure extends known to every variable the dependencies determine
// from it.
func (rd *ruleDeps) closure(known uint64) uint64 {
	for grew := true; grew; {
		grew = false
		for _, f := range rd.fds {
			if f.from&^known == 0 && f.to&^known != 0 {
				known |= f.to
				grew = true
			}
		}
	}
	return known
}

// checkKeys reports a declared key that a deriving rule contradicts: a
// head column outside the key's closure takes a key column of a body
// atom whose declared key also names a variable that the head drops and
// the key does not fix. Rows of that atom differing only in the dropped
// variable are distinct by its declaration, and each can derive a
// different value of the column under one head key — equal-cost ties
// replacing one another is the shape (a shortestPath keyed on source and
// destination alone).
func (c *collector) checkKeys(prog *ast.Program) {
	ks := newKeyState(prog)
	for _, d := range prog.Materialized {
		key := ks.keys[d.Name]
		if key == nil {
			continue
		}
		for _, r := range ks.rules[d.Name] {
			if r.Head.HasAggregate() || len(r.Head.Args) != ks.arity[d.Name] {
				continue
			}
			if msg := ks.contradiction(r, key); msg != "" {
				c.warnf(r.Pos, CheckKey, ruleName(r), "declared key %s of %s is contradicted by rule %s: %s",
					Key{Cols: key}, d.Name, ruleName(r), msg)
			}
		}
	}
}

// contradiction explains how rule r can derive two rows under one value
// of key, or returns "".
func (ks *keyState) contradiction(r *ast.Rule, key []int) string {
	rd := ks.deps(r)
	if rd == nil {
		return ""
	}
	var fixed uint64
	for _, c := range key {
		fixed |= rd.cols[c]
	}
	known := rd.closure(fixed)
	bit := func(name string) uint64 {
		i := slices.Index(rd.names, name)
		if i < 0 || i >= 64 {
			return 0
		}
		return 1 << i
	}
	for col, arg := range r.Head.Args {
		v, ok := arg.(*ast.Var)
		if !ok || known&bit(v.Name) != 0 {
			continue
		}
		for _, t := range r.Body {
			a, ok := t.(*ast.Atom)
			if !ok {
				continue
			}
			cols := ks.keys[a.Pred]
			if cols == nil || !slices.ContainsFunc(cols, func(i int) bool { return i < len(a.Args) && isVar(a.Args[i], v.Name) }) {
				continue
			}
			for _, i := range cols {
				if i >= len(a.Args) {
					continue
				}
				if w, ok := a.Args[i].(*ast.Var); ok && (known|rd.need)&bit(w.Name) == 0 {
					return fmt.Sprintf("rows of %s that differ only in %s derive different values of column %d (%s)", a.Pred, w.Name, col, v.Name)
				}
			}
		}
	}
	return ""
}

func isVar(e ast.Expr, name string) bool {
	v, ok := e.(*ast.Var)
	return ok && v.Name == name
}
