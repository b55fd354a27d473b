package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"ndlog/internal/analysis"
	"ndlog/internal/parser"
	"ndlog/internal/planner"
	"ndlog/internal/programs"
)

func inferKeys(t *testing.T, src string) map[string][]int {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	local, err := planner.Localize(prog)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]int{}
	for pred, k := range analysis.Keys(local) {
		if k.Inferred {
			out[pred] = k.Cols
		}
	}
	return out
}

// TestInferKeysShippedPrograms: the localization's path_d1 gets (Z,S)
// from link's key, and shortestPath, declared on its whole row, gets
// (S,D,P) from spCost's.
func TestInferKeysShippedPrograms(t *testing.T) {
	for name, src := range map[string]string{"ShortestPath": programs.ShortestPath(""), "ShortestPathDV": programs.ShortestPathDV("")} {
		got := fmt.Sprint(inferKeys(t, src))
		if want := "map[path_d1:[0 1] shortestPath:[0 1 2]]"; got != want {
			t.Errorf("%s: inferred %s, want %s", name, got, want)
		}
	}
}

// TestInferKeysNegative: no key may be inferred for a predicate with two
// deriving rules, for a head variable only an unkeyed atom binds, for a
// predicate that also carries base facts, or for soft state.
func TestInferKeysNegative(t *testing.T) {
	const decls = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(soft, 10, infinity, keys(1,2)).
`
	for name, rules := range map[string]string{
		"two deriving rules": `
q(@S, Z, C) :- link(@S, Z, C).
q(@S, Z, C) :- link(@S, Z, C2), C := C2 + 1.`,
		"head variable bound by an unkeyed atom": `
q(@S, Z, W) :- link(@S, Z, C), free(@S, W).`,
		"base facts": `
q(@S, Z, C) :- link(@S, Z, C).
q(@a, b, 1).`,
		"soft support": `
q(@S, Z, C) :- soft(@S, Z, C).`,
	} {
		if got := inferKeys(t, decls+rules); len(got) != 0 {
			t.Errorf("%s: inferred %v, want nothing", name, got)
		}
	}
	// The positive control: the first case's one rule alone does imply
	// (S,Z).
	if got := fmt.Sprint(inferKeys(t, decls+`q(@S, Z, C) :- link(@S, Z, C).`)); got != "map[q:[0 1]]" {
		t.Errorf("one rule over link: inferred %s, want map[q:[0 1]]", got)
	}
}

// TestDeclaredKeyContradicted: shortestPath keyed on (source,
// destination) lets one equal-cost tie replace another, which the rule
// joining path's (S,D,Z,P)-keyed rows says it will derive; the
// shipped (S,D,P,C) declaration draws no report.
func TestDeclaredKeyContradicted(t *testing.T) {
	src := programs.ShortestPathDV("")
	if d := find(analyze(t, src), analysis.CheckKey); len(d) != 0 {
		t.Errorf("shipped program: %v", d)
	}
	bad := strings.Replace(src, "materialize(shortestPath, infinity, infinity, keys(1,2,3,4))",
		"materialize(shortestPath, infinity, infinity, keys(1,2))", 1)
	d := find(analyze(t, bad), analysis.CheckKey)
	if len(d) != 1 || d[0].Rule != "dv4" || !strings.Contains(d[0].Msg, "_Z") {
		t.Errorf("shortestPath keyed on (S,D): %v, want one report on dv4 naming _Z", d)
	}
}
