// Package planner performs the query rewrites of the paper: rule
// localization (Algorithm 2), magic-sets rewriting and predicate
// reordering (Section 5.1.2), and aggregate-selection detection
// (Section 5.1.1). Its CheckError is the error both a failed
// localization and a Definition 6 violation (analysis.Definition6, which
// engine.Compile reports) carry.
//
// Rewrites are pure with respect to their input: Localize and MagicSets
// clone the program and return a new one (unmodified rules are shared
// by pointer, never edited), so a caller can plan the same parsed
// program several ways. SlotMaps and analysis results are immutable
// once returned and safe to share across engine nodes.
package planner

import (
	"fmt"

	"ndlog/internal/ast"
)

// CheckError reports an NDlog validity violation.
type CheckError struct {
	Rule string // rule label or rendered rule
	Msg  string
}

func (e *CheckError) Error() string {
	if e.Rule == "" {
		return "ndlog: " + e.Msg
	}
	return fmt.Sprintf("ndlog: rule %s: %s", e.Rule, e.Msg)
}

func checkErrf(r *ast.Rule, format string, args ...any) error {
	name := ""
	if r != nil {
		name = r.Label
		if name == "" {
			name = r.Head.Pred
		}
	}
	return &CheckError{Rule: name, Msg: fmt.Sprintf(format, args...)}
}

// LinkRelations returns the set of relation names used as link literals
// ("#pred") anywhere in the program.
func LinkRelations(p *ast.Program) map[string]bool {
	links := map[string]bool{}
	for _, r := range p.Rules {
		for _, a := range r.Atoms() {
			if a.Link {
				links[a.Pred] = true
			}
		}
	}
	return links
}

// IDBPredicates returns the set of predicates defined by rule heads
// (intensional relations).
func IDBPredicates(p *ast.Program) map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}
