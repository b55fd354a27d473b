// Package analysis is the NDlog semantic analyzer: a multi-diagnostic
// front end that runs every check over a parsed program and reports
// all findings with source positions instead of failing on the first
// violation.
//
// Checks fall into three groups (see DESIGN.md §9 for the catalogue):
//
//   - Definition 6 validity (SIGMOD 2006): location specificity,
//     address type safety, stored link relations, link restriction,
//     plus the well-formedness rules the planner has always enforced
//     (bound variables, single head aggregate, fresh assignments).
//   - Whole-program semantic passes: per-predicate arity and column
//     type inference across rules, facts and builtin signatures;
//     safety/range restriction (every variable bound by a positive
//     body literal); lifetime dataflow over the predicate dependency
//     graph (soft-state must never feed hard state — the PR 5 bug
//     class); dead-rule and unreachable-predicate detection from the
//     seeded EDB set.
//   - Lints (warnings): unused assignments, singleton variables,
//     aggregate argument hygiene, and recursion the count algorithm
//     cannot retract (no path-vector guard).
//
// Analyze never mutates the program. Diagnostics are sorted by source
// position and render as "file:line:col: severity: message [check-id]".
package analysis

import (
	"fmt"
	"sort"

	"ndlog/internal/ast"
)

// Severity classifies a diagnostic. Errors make the program invalid;
// warnings are lints the engine will happily (if unwisely) run.
type Severity uint8

// Severity levels.
const (
	Warning Severity = iota + 1
	Error
)

func (s Severity) String() string {
	switch s {
	case Warning:
		return "warning"
	case Error:
		return "error"
	}
	return fmt.Sprintf("severity(%d)", uint8(s))
}

// Check identifiers, one per diagnostic class. These are stable API:
// golden test outputs, JSON consumers, and DESIGN.md §9 all key on them.
const (
	CheckLocSpec      = "loc-spec"      // Definition 6 (1): location specificity
	CheckAddrType     = "addr-type"     // Definition 6 (2): address type safety
	CheckLinkHead     = "link-head"     // Definition 6 (3): stored link relations
	CheckLinkRestrict = "link-restrict" // Definition 6 (4): link restriction
	CheckUnbound      = "unbound-var"   // well-formedness: unbound variable
	CheckRebind       = "rebind"        // well-formedness: assignment rebinds
	CheckAggMulti     = "agg-multi"     // well-formedness: >1 aggregate per head
	CheckArity        = "arity"         // predicate arity conflicts
	CheckType         = "type-conflict" // column/variable type conflicts
	CheckBuiltin      = "builtin"       // unknown builtin or wrong argument count
	CheckSafety       = "safety"        // range restriction beyond Definition 6
	CheckLifetime     = "lifetime"      // soft-state feeding or mixed with hard state
	CheckEvent        = "event"         // event-predicate (lifetime 0) misuse
	CheckAggArg       = "agg-arg"       // aggregate argument hygiene
	CheckDeadRule     = "dead-rule"     // rule can never fire from the seeded EDB
	CheckUnreachable  = "unreachable"   // predicate never seeded nor derived
	CheckUnusedVar    = "unused-var"    // assigned but never used
	CheckSingleton    = "singleton"     // variable occurs exactly once
	CheckCountCycle   = "count-cycle"   // hard-state recursion with no path-vector guard
	CheckKey          = "key"           // declared key a deriving rule contradicts
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      ast.Pos
	Severity Severity
	Check    string // one of the Check* identifiers
	Rule     string // rule label (or head predicate) it concerns, "" if program-level
	Msg      string
}

// Format renders the diagnostic in the canonical
// "file:line:col: severity: message [check-id]" shape.
func (d Diagnostic) Format(file string) string {
	return fmt.Sprintf("%s:%d:%d: %s: %s [%s]", file, d.Pos.Line, d.Pos.Col, d.Severity, d.Msg, d.Check)
}

// HasErrors reports whether any diagnostic is an Error.
func HasErrors(diags []Diagnostic) bool {
	for _, d := range diags {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Analyze runs every check over prog and returns all findings sorted
// by source position. The program is not mutated.
func Analyze(prog *ast.Program) []Diagnostic {
	c := &collector{}
	c.definition6(prog)
	sig := c.checkTypes(prog)
	c.checkSafety(prog, sig)
	c.checkLifetime(prog)
	c.checkEvents(prog)
	c.checkCountCycles(prog)
	c.checkKeys(prog)
	c.checkReachability(prog)
	c.checkAggArgs(prog)
	c.checkVarLints(prog)
	sortDiags(c.diags)
	return c.diags
}

// Definition6 runs only the Definition 6 validity and well-formedness
// checks, collecting every violation; each is an Error. engine.Compile
// refuses a program with any, one *planner.CheckError per violation.
func Definition6(prog *ast.Program) []Diagnostic {
	c := &collector{}
	c.definition6(prog)
	sortDiags(c.diags)
	return c.diags
}

// collector accumulates diagnostics across passes.
type collector struct {
	diags []Diagnostic
}

func (c *collector) report(pos ast.Pos, sev Severity, check, rule, format string, args ...any) {
	c.diags = append(c.diags, Diagnostic{
		Pos: pos, Severity: sev, Check: check, Rule: rule,
		Msg: fmt.Sprintf(format, args...),
	})
}

func (c *collector) errorf(pos ast.Pos, check, rule, format string, args ...any) {
	c.report(pos, Error, check, rule, format, args...)
}

func (c *collector) warnf(pos ast.Pos, check, rule, format string, args ...any) {
	c.report(pos, Warning, check, rule, format, args...)
}

func sortDiags(diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// ruleName mirrors the planner's historical naming: the rule label, or
// the head predicate when unlabeled.
func ruleName(r *ast.Rule) string {
	if r.Label != "" {
		return r.Label
	}
	return r.Head.Pred
}

// walkVars calls f for every variable occurrence in an expression tree,
// including aggregate-range variables.
func walkVars(e ast.Expr, f func(*ast.Var)) {
	switch x := e.(type) {
	case *ast.Var:
		f(x)
	case *ast.BinOp:
		walkVars(x.L, f)
		walkVars(x.R, f)
	case *ast.Call:
		for _, a := range x.Args {
			walkVars(a, f)
		}
	case *ast.Agg:
		f(&ast.Var{Name: x.Var, Pos: x.Pos})
	}
}
