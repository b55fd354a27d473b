// Package ast defines the abstract syntax of NDlog (Network Datalog)
// programs as introduced in "Declarative Networking: Language, Execution
// and Optimization" (SIGMOD 2006), Section 2.
//
// An NDlog program is a Datalog program whose predicates carry a location
// specifier ("@" attribute) as their first field and whose non-local rules
// are link-restricted: they contain exactly one link literal ("#link")
// and every other predicate is located at one of the link's endpoints.
//
// Ownership: a Program belongs to its builder (parser or test) until it
// is handed to planner rewrites or engine compilation; appending Facts
// before that point is the supported way to add workloads. Planner
// rewrites never mutate in place — they Clone and return new Programs
// (sharing unmodified Rule pointers) — and the engine holds Rule
// pointers for the lifetime of its nodes, so no Rule may be mutated
// after compilation.
package ast

import (
	"fmt"
	"strings"

	"ndlog/internal/val"
)

// Pos is a 1-based line/column source position. The zero Pos means
// "unknown" — nodes built programmatically (planner rewrites, tests)
// carry it, and diagnostics render it as 0:0.
type Pos struct {
	Line, Col int
}

// IsValid reports whether p names a real source location.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Program is a parsed NDlog program: table declarations, rules, watches,
// base facts, and an optional query.
type Program struct {
	Materialized []*TableDecl
	Rules        []*Rule
	Facts        []val.Tuple
	FactPos      []Pos // source position per fact; may be shorter than Facts
	Query        *Atom
	Watches      []string // predicates whose derivations should be traced
}

// FactAt returns the source position of fact i, or the zero Pos for
// facts appended programmatically after parsing.
func (p *Program) FactAt(i int) Pos {
	if i < len(p.FactPos) {
		return p.FactPos[i]
	}
	return Pos{}
}

// TableDecl declares a materialized (stored) relation, following P2's
// "materialize(name, lifetime, size, keys(...))" convention. Lifetime is
// a soft-state TTL in virtual seconds; a negative lifetime means
// "infinity" (hard state). Lifetime zero declares an event predicate:
// tuples are processed as they arrive — each firing runs the rules the
// predicate triggers — but are never stored, never refreshed, and never
// retracted, matching P2's non-materialized event streams. Event
// predicates give protocols an instant that cannot be un-derived: a
// periodic tick or a request message fires once and is gone, so later
// changes to the tables it was joined against do not cascade deletions
// through it.
type TableDecl struct {
	Name     string
	Lifetime float64 // seconds; <0 means infinite, 0 means event
	MaxSize  int     // 0 means unbounded
	Keys     []int   // 0-based primary-key positions; empty means all fields
	Pos      Pos
}

// IsEvent reports whether the declaration is an event predicate
// (lifetime zero: processed, never stored).
func (d *TableDecl) IsEvent() bool { return d.Lifetime == 0 }

// Rule is "Head :- Body." with an optional label (e.g. "SP2"). Delete
// rules (prefixed "delete" in some NDlog dialects) are not modelled; the
// engine instead propagates deletions through ordinary rules via the
// count algorithm.
type Rule struct {
	Label string
	Head  Atom
	Body  []Term
	Pos   Pos
}

// Term is one element of a rule body: a predicate Atom, an Assign
// ("X := expr"), or a Select (a boolean condition such as "C < 10").
type Term interface {
	fmt.Stringer
	term()
}

// Atom is a predicate applied to argument expressions. If Link is true
// the atom was written "#pred(...)" and names the link relation that
// link-restricts the rule.
type Atom struct {
	Pred string
	Args []Expr
	Link bool
	Pos  Pos
}

func (*Atom) term() {}

// LocArg returns the location-specifier argument (first argument) or nil
// if the atom has no arguments.
func (a *Atom) LocArg() Expr {
	if len(a.Args) == 0 {
		return nil
	}
	return a.Args[0]
}

// LocVar returns the location-specifier variable name, or "" if the first
// argument is not a simple variable.
func (a *Atom) LocVar() string {
	if v, ok := a.LocArg().(*Var); ok {
		return v.Name
	}
	return ""
}

// HasAggregate reports whether any argument is an aggregate expression.
func (a *Atom) HasAggregate() bool {
	for _, e := range a.Args {
		if _, ok := e.(*Agg); ok {
			return true
		}
	}
	return false
}

// AggregateIndex returns the position of the (single) aggregate argument,
// or -1 if none.
func (a *Atom) AggregateIndex() int {
	for i, e := range a.Args {
		if _, ok := e.(*Agg); ok {
			return i
		}
	}
	return -1
}

func (a *Atom) String() string {
	var b strings.Builder
	if a.Link {
		b.WriteByte('#')
	}
	b.WriteString(a.Pred)
	b.WriteByte('(')
	for i, e := range a.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		if i == 0 {
			// Location specifier: print with the "@" convention when it is
			// a variable or address constant.
			switch v := e.(type) {
			case *Var:
				b.WriteByte('@')
				b.WriteString(v.Name)
				continue
			case *Const:
				if v.Value.Kind() == val.KindAddr {
					b.WriteByte('@')
					b.WriteString(v.Value.Addr())
					continue
				}
			}
		}
		b.WriteString(e.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Assign binds a fresh variable to the value of an expression:
// "Var := Expr".
type Assign struct {
	Var  string
	Expr Expr
	Pos  Pos
}

func (*Assign) term() {}

func (a *Assign) String() string { return a.Var + " := " + a.Expr.String() }

// Select is a boolean filter condition over bound variables.
type Select struct {
	Cond Expr
	Pos  Pos
}

func (*Select) term() {}

func (s *Select) String() string { return s.Cond.String() }

// Expr is an NDlog expression: variables, constants, binary operations,
// function calls, and aggregate specifications (head-only).
type Expr interface {
	fmt.Stringer
	expr()
}

// Var references a variable. Loc marks variables written with the "@"
// prefix (address type).
type Var struct {
	Name string
	Loc  bool
	Pos  Pos
}

func (*Var) expr() {}

func (v *Var) String() string {
	if v.Loc {
		return "@" + v.Name
	}
	return v.Name
}

// Const is a literal value.
type Const struct {
	Value val.Value
	Pos   Pos
}

func (*Const) expr() {}

func (c *Const) String() string { return c.Value.String() }

// BinOp applies an arithmetic or comparison operator.
type BinOp struct {
	Op   Op
	L, R Expr
	Pos  Pos // position of the operator
}

func (*BinOp) expr() {}

func (b *BinOp) String() string {
	return fmt.Sprintf("%s %s %s", b.L, b.Op, b.R)
}

// Op enumerates binary operators.
type Op uint8

// Binary operators.
const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
)

var opNames = map[Op]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// IsComparison reports whether o yields a boolean.
func (o Op) IsComparison() bool {
	switch o {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr:
		return true
	}
	return false
}

// Call invokes a built-in function ("f_concatPath", "f_member", ...).
type Call struct {
	Name string
	Args []Expr
	Pos  Pos
}

func (*Call) expr() {}

func (c *Call) String() string {
	var b strings.Builder
	b.WriteString(c.Name)
	b.WriteByte('(')
	for i, a := range c.Args {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.String())
	}
	b.WriteByte(')')
	return b.String()
}

// Agg is an aggregate head argument such as "min<C>".
type Agg struct {
	Func AggFunc
	Var  string
	Pos  Pos
}

func (*Agg) expr() {}

func (a *Agg) String() string { return fmt.Sprintf("%s<%s>", a.Func, a.Var) }

// AggFunc enumerates supported aggregate functions.
type AggFunc uint8

// Aggregate functions. Min, max and count are the monotonic aggregates
// the paper computes incrementally (Section 3.3.2, Section 4).
const (
	AggMin AggFunc = iota
	AggMax
	AggCount
	AggSum
)

var aggNames = map[AggFunc]string{
	AggMin: "min", AggMax: "max", AggCount: "count", AggSum: "sum",
}

func (f AggFunc) String() string {
	if s, ok := aggNames[f]; ok {
		return s
	}
	return fmt.Sprintf("agg(%d)", uint8(f))
}

// AggFuncByName resolves an aggregate name; ok is false if unknown.
func AggFuncByName(name string) (AggFunc, bool) {
	for f, s := range aggNames {
		if s == name {
			return f, true
		}
	}
	return 0, false
}

func (r *Rule) String() string {
	var b strings.Builder
	if r.Label != "" {
		b.WriteString(r.Label)
		b.WriteByte(' ')
	}
	b.WriteString(r.Head.String())
	b.WriteString(" :- ")
	for i, t := range r.Body {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(t.String())
	}
	b.WriteByte('.')
	return b.String()
}

// Atoms returns the predicate atoms of the rule body, in order.
func (r *Rule) Atoms() []*Atom {
	var out []*Atom
	for _, t := range r.Body {
		if a, ok := t.(*Atom); ok {
			out = append(out, a)
		}
	}
	return out
}

// LinkAtom returns the rule's link literal, or nil if there is none.
func (r *Rule) LinkAtom() *Atom {
	for _, a := range r.Atoms() {
		if a.Link {
			return a
		}
	}
	return nil
}

// IsLocal reports whether every atom in the rule (head included) has the
// same location-specifier variable (Definition 3).
func (r *Rule) IsLocal() bool {
	loc := r.Head.LocVar()
	if loc == "" {
		if c, ok := r.Head.LocArg().(*Const); !ok || c.Value.Kind() != val.KindAddr {
			return false
		}
	}
	for _, a := range r.Atoms() {
		if a.LocVar() != loc {
			return false
		}
	}
	return true
}

// ExprPos returns the source position of an expression node.
func ExprPos(e Expr) Pos {
	switch x := e.(type) {
	case *Var:
		return x.Pos
	case *Const:
		return x.Pos
	case *BinOp:
		return x.Pos
	case *Call:
		return x.Pos
	case *Agg:
		return x.Pos
	}
	return Pos{}
}

// Vars returns the set of variable names appearing in an expression tree.
func Vars(e Expr) map[string]bool {
	out := map[string]bool{}
	collectVars(e, out)
	return out
}

func collectVars(e Expr, out map[string]bool) {
	switch x := e.(type) {
	case *Var:
		out[x.Name] = true
	case *BinOp:
		collectVars(x.L, out)
		collectVars(x.R, out)
	case *Call:
		for _, a := range x.Args {
			collectVars(a, out)
		}
	case *Agg:
		out[x.Var] = true
	}
}

// Clone returns a deep copy of the rule. Rewrites in the planner mutate
// copies rather than the parsed program.
func (r *Rule) Clone() *Rule {
	nr := &Rule{Label: r.Label, Head: *cloneAtom(&r.Head), Pos: r.Pos}
	for _, t := range r.Body {
		nr.Body = append(nr.Body, cloneTerm(t))
	}
	return nr
}

func cloneTerm(t Term) Term {
	switch x := t.(type) {
	case *Atom:
		return cloneAtom(x)
	case *Assign:
		return &Assign{Var: x.Var, Expr: cloneExpr(x.Expr), Pos: x.Pos}
	case *Select:
		return &Select{Cond: cloneExpr(x.Cond), Pos: x.Pos}
	}
	panic(fmt.Sprintf("ast: unknown term %T", t))
}

func cloneAtom(a *Atom) *Atom {
	na := &Atom{Pred: a.Pred, Link: a.Link, Args: make([]Expr, len(a.Args)), Pos: a.Pos}
	for i, e := range a.Args {
		na.Args[i] = cloneExpr(e)
	}
	return na
}

func cloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Var:
		return &Var{Name: x.Name, Loc: x.Loc, Pos: x.Pos}
	case *Const:
		return &Const{Value: x.Value, Pos: x.Pos}
	case *BinOp:
		return &BinOp{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R), Pos: x.Pos}
	case *Call:
		nc := &Call{Name: x.Name, Args: make([]Expr, len(x.Args)), Pos: x.Pos}
		for i, a := range x.Args {
			nc.Args[i] = cloneExpr(a)
		}
		return nc
	case *Agg:
		return &Agg{Func: x.Func, Var: x.Var, Pos: x.Pos}
	}
	panic(fmt.Sprintf("ast: unknown expr %T", e))
}

// String renders the whole program in parseable NDlog syntax.
func (p *Program) String() string {
	var b strings.Builder
	for _, m := range p.Materialized {
		fmt.Fprintf(&b, "materialize(%s, %s, %s, keys(", m.Name, lifetimeStr(m.Lifetime), sizeStr(m.MaxSize))
		for i, k := range m.Keys {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d", k+1)
		}
		b.WriteString(")).\n")
	}
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	for _, f := range p.Facts {
		b.WriteString(f.String())
		b.WriteString(".\n")
	}
	if p.Query != nil {
		b.WriteString("query ")
		b.WriteString(p.Query.String())
		b.WriteString(".\n")
	}
	return b.String()
}

func lifetimeStr(l float64) string {
	if l < 0 {
		return "infinity"
	}
	return fmt.Sprintf("%g", l)
}

func sizeStr(s int) string {
	if s <= 0 {
		return "infinity"
	}
	return fmt.Sprintf("%d", s)
}

// RuleByLabel returns the rule with the given label, or nil.
func (p *Program) RuleByLabel(label string) *Rule {
	for _, r := range p.Rules {
		if r.Label == label {
			return r
		}
	}
	return nil
}

// Decl returns the table declaration for name, or nil.
func (p *Program) Decl(name string) *TableDecl {
	for _, m := range p.Materialized {
		if m.Name == name {
			return m
		}
	}
	return nil
}

// Clone deep-copies the program.
func (p *Program) Clone() *Program {
	np := &Program{Watches: append([]string(nil), p.Watches...)}
	for _, m := range p.Materialized {
		mm := *m
		mm.Keys = append([]int(nil), m.Keys...)
		np.Materialized = append(np.Materialized, &mm)
	}
	for _, r := range p.Rules {
		np.Rules = append(np.Rules, r.Clone())
	}
	np.Facts = append(np.Facts, p.Facts...)
	np.FactPos = append(np.FactPos, p.FactPos...)
	if p.Query != nil {
		np.Query = cloneAtom(p.Query)
	}
	return np
}
