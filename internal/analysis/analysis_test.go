package analysis_test

import (
	"slices"
	"strings"
	"testing"

	"ndlog/internal/analysis"
	"ndlog/internal/parser"
)

func analyze(t *testing.T, src string) []analysis.Diagnostic {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return analysis.Analyze(prog)
}

func find(diags []analysis.Diagnostic, check string) []analysis.Diagnostic {
	var out []analysis.Diagnostic
	for _, d := range diags {
		if d.Check == check {
			out = append(out, d)
		}
	}
	return out
}

// TestSoftToHardPreviouslyPassedSilently: the PR 5 bug class. The
// historical checker accepted a hard-state table derived from an
// expiring soft-state table; the lifetime pass rejects it.
func TestSoftToHardPreviouslyPassedSilently(t *testing.T) {
	src := `
materialize(heartbeat, 30, infinity, keys(1,2)).
materialize(member, infinity, infinity, keys(1,2)).
m1 member(@S, @N) :- heartbeat(@S, @N).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if diags := analysis.Definition6(prog); len(diags) != 0 {
		t.Fatalf("Definition 6 should still accept this program, got %v", diags)
	}
	diags := find(analysis.Analyze(prog), analysis.CheckLifetime)
	if len(diags) != 1 {
		t.Fatalf("want 1 lifetime error, got %v", diags)
	}
	d := diags[0]
	if d.Severity != analysis.Error || d.Pos.Line != 4 {
		t.Errorf("lifetime diagnostic = %+v, want error at line 4", d)
	}
	if !strings.Contains(d.Msg, "heartbeat") || !strings.Contains(d.Msg, "member") {
		t.Errorf("message should name both predicates: %q", d.Msg)
	}
}

// TestMixedSupportRejected: an undeclared predicate derived from soft
// state holds rows with deadlines, so a second, hard support for it — a
// rule over hard state, an aggregate rule or a fact — is an error, one
// per hard support. Supports that are all soft, or a predicate declared
// soft, pass; an event in the body carries no deadline, so a rule over
// one is hard support too.
func TestMixedSupportRejected(t *testing.T) {
	src := `
materialize(hop, 10, infinity, keys(1,2)).
materialize(link, infinity, infinity, keys(1,2)).
materialize(ping, 0, infinity, keys(1,2)).
t1 twoHop(@X, Z) :- hop(@X, Y), hop(@Y, Z).
t2 twoHop(@X, Z) :- link(@X, Z).
t3 twoHop(@X, Z) :- ping(@X, Z).
t4 twoHop(@X, count<Z>) :- hop(@X, Z).
twoHop(a, b).
o1 out(@X) :- hop(@X, _Y).
o2 out(@X) :- twoHop(@X, _Z), link(@X, _W).
`
	diags := find(analyze(t, src), analysis.CheckLifetime)
	var lines []int
	for _, d := range diags {
		if d.Severity != analysis.Error || !strings.Contains(d.Msg, "twoHop") || !strings.Contains(d.Msg, "hop") {
			t.Errorf("diagnostic %+v: want an error naming twoHop and hop", d)
		}
		lines = append(lines, d.Pos.Line)
	}
	if want := []int{6, 7, 8, 9}; !slices.Equal(lines, want) {
		t.Errorf("mixed-support errors on lines %v, want %v: %v", lines, want, diags)
	}

	declared := "materialize(twoHop, 10, infinity, keys(1,2)).\n" + src
	if diags := find(analyze(t, declared), analysis.CheckLifetime); len(diags) != 0 {
		t.Errorf("twoHop declared soft: want no lifetime errors, got %v", diags)
	}
}

// TestArityUnsafeHeadVarPreviouslyPassedSilently: an atom whose arity
// conflicts with the predicate's canonical arity binds nothing, so a
// head variable bound only there is unsafe. The historical checker
// counted the vacuous binding and accepted the rule.
func TestArityUnsafeHeadVarPreviouslyPassedSilently(t *testing.T) {
	src := `s2 out(@S, X) :- pong(@S, Y), pong(@S, Y, X).`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if diags := analysis.Definition6(prog); len(diags) != 0 {
		t.Fatalf("Definition 6 should still accept this program, got %v", diags)
	}
	diags := analysis.Analyze(prog)
	if n := len(find(diags, analysis.CheckArity)); n != 1 {
		t.Errorf("want 1 arity error, got %d", n)
	}
	safety := find(diags, analysis.CheckSafety)
	if len(safety) != 1 || !strings.Contains(safety[0].Msg, "head variable X") {
		t.Errorf("want 1 safety error naming head variable X, got %v", safety)
	}
}

// TestMultipleViolationsAllReported: the analyzer collects every
// finding with its own position instead of failing fast.
func TestMultipleViolationsAllReported(t *testing.T) {
	src := `
materialize(heartbeat, 30, infinity, keys(1,2)).
materialize(member, infinity, infinity, keys(1,2)).
m1 member(@S, @N) :- heartbeat(@S, @N).
m2 route(@S, Y) :- ping(@S, X), ping(@S, X, Y).
m3 stat(@S, count<N>, @N) :- member(@S, @N).
`
	diags := analyze(t, src)
	errs := 0
	lines := map[int]bool{}
	for _, d := range diags {
		if d.Severity == analysis.Error {
			errs++
			lines[d.Pos.Line] = true
			if !d.Pos.IsValid() {
				t.Errorf("diagnostic without position: %+v", d)
			}
		}
	}
	if errs < 3 {
		t.Fatalf("want >=3 errors, got %d: %v", errs, diags)
	}
	for _, want := range []int{4, 5, 6} {
		if !lines[want] {
			t.Errorf("no error reported on line %d; diagnostics: %v", want, diags)
		}
	}
}

// TestNestedAtomArgUnboundVar: variables occurring only inside a body
// atom's argument expression bind nothing and were never checked
// historically.
func TestNestedAtomArgUnboundVar(t *testing.T) {
	diags := analyze(t, `s1 res(@S, C) :- ping(@S, C, C + Y).`)
	safety := find(diags, analysis.CheckSafety)
	if len(safety) != 1 || !strings.Contains(safety[0].Msg, "variable Y") {
		t.Errorf("want safety error for Y, got %v", safety)
	}
}

// TestUnderscoreSilencesLints: the documented suppression convention.
func TestUnderscoreSilencesLints(t *testing.T) {
	diags := analyze(t, `v1 res(@S, C) :- ping(@S, C, _T), _X := C + 1.`)
	if len(diags) != 0 {
		t.Errorf("underscore-prefixed variables should be lint-free, got %v", diags)
	}
}

// TestCleanProgramNoDiagnostics: a well-formed program produces nothing.
func TestCleanProgramNoDiagnostics(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3,4)).
link(a, b, 1).
p1 path(@S, @D, P, C) :- #link(@S, @D, C), P := f_concatPath(S, [D]).
p2 path(@S, @D, P, C) :- #link(@S, @Z, C1), path(@Z, @D, P2, C2),
	f_member(P2, S) == false, C := C1 + C2, P := f_concatPath(S, P2).
query path(@S, @D, P, C).
`
	if diags := analyze(t, src); len(diags) != 0 {
		t.Errorf("clean program should have no diagnostics, got %v", diags)
	}
}
