package programs

import (
	"maps"
	"strings"
	"testing"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
	"ndlog/internal/parser"
	"ndlog/internal/planner"
)

// TestAllProgramsParseAndCheck keeps every shipped program text in sync
// with the parser and the Definition-6 checker.
func TestAllProgramsParseAndCheck(t *testing.T) {
	srcs := map[string]string{
		"ShortestPath":         ShortestPath(""),
		"ShortestPath(_lat)":   ShortestPath("_lat"),
		"ShortestPathDV":       ShortestPathDV(""),
		"MagicShortestPath":    MagicShortestPath(),
		"CachedSourceRoute":    CachedSourceRoute(),
		"Multicast+DV":         Combine(ShortestPathDV(""), Multicast()),
		"ShortestPath combine": Combine(ShortestPath("_a"), ShortestPath("_b")),
		"Chord":                Chord(DefaultChordConfig()),
		"LinkState":            LinkState(DefaultMaxHop),
		"Gossip":               Gossip(DefaultGossipConfig()),
	}
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Errorf("%s: parse: %v", name, err)
			continue
		}
		if diags := analysis.Definition6(prog); len(diags) != 0 {
			t.Errorf("%s: check: %v", name, diags)
		}
		if prog.Query == nil {
			t.Errorf("%s: no query", name)
		}
		if _, err := planner.Localize(prog); err != nil {
			t.Errorf("%s: localize: %v", name, err)
		}
	}
}

// countCycles names the shipped programs the analyzer's count-cycle
// lint flags — recursion with no path-vector guard — and why their
// derivations stay retractable anyway.
var countCycles = map[string]string{
	"MagicShortestPath": "an2 steps to the previous hop of a simple path vector, so the answer walk ends at the source",
	"CachedSourceRoute": "a cached cost can support the answer that feeds it (hit1, ca1), but the Section 5.2 queries only ever insert",
	"Multicast+DV":      "a member climbs shortestPath next hops toward the root, and next hops form a tree",
	"LinkState":         "ls2 spends one unit of the hop budget H per re-flood, so no lsu copy supports its ancestors",
}

// TestProgramsAnalyzerClean holds every shipped program to the full
// analyzer bar, warnings included: generator output must stay free of
// singleton variables, dead rules, type conflicts, and lifetime
// violations, not just Definition 6 errors. The only warnings allowed
// are the count-cycle ones countCycles explains, and each of those must
// still fire.
func TestProgramsAnalyzerClean(t *testing.T) {
	srcs := map[string]string{
		"ShortestPath":      ShortestPath(""),
		"ShortestPathDV":    ShortestPathDV(""),
		"MagicShortestPath": MagicShortestPath(),
		"CachedSourceRoute": CachedSourceRoute(),
		"Multicast+DV":      Combine(ShortestPathDV(""), Multicast()),
		"Chord":             Chord(DefaultChordConfig()),
		"LinkState":         LinkState(DefaultMaxHop),
		"Gossip":            Gossip(DefaultGossipConfig()),
	}
	for name, src := range srcs {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		warned := false
		for _, d := range analysis.Analyze(prog) {
			if d.Check == analysis.CheckCountCycle && countCycles[name] != "" {
				warned = true
				continue
			}
			t.Errorf("%s: %s", name, d.Format("<"+name+">"))
		}
		if countCycles[name] != "" && !warned {
			t.Errorf("%s: listed in countCycles but no longer warns; drop it from the list", name)
		}
	}
}

func TestSuffixedPredicates(t *testing.T) {
	src := ShortestPath("_rnd")
	for _, want := range []string{"link_rnd", "path_rnd", "spCost_rnd", "shortestPath_rnd", "sp1_rnd"} {
		if !strings.Contains(src, want) {
			t.Errorf("suffixed program missing %q", want)
		}
	}
}

func TestCombineKeepsLastQueryOnly(t *testing.T) {
	src := Combine(ShortestPath("_a"), ShortestPath("_b"))
	if got := strings.Count(src, "query "); got != 1 {
		t.Errorf("combined program has %d query statements", got)
	}
	if !strings.Contains(src, "query shortestPath_b") {
		t.Error("last program's query should survive")
	}
}

func TestFactBuilders(t *testing.T) {
	l := LinkFact("link", "a", "b", 2.5)
	if l.Pred != "link" || l.Fields[0].Addr() != "a" || l.Fields[2].Float() != 2.5 {
		t.Errorf("LinkFact = %v", l)
	}
	if f := MagicSrcFact("s"); f.Key() != "magicSrc(s)" {
		t.Errorf("MagicSrcFact = %v", f)
	}
	if f := MagicDstFact("d"); f.Key() != "magicDst(d)" {
		t.Errorf("MagicDstFact = %v", f)
	}
	if f := MagicQueryFact("s", "d"); f.Key() != "magicQuery(s,d)" {
		t.Errorf("MagicQueryFact = %v", f)
	}
	if f := MemberFact("n", "r"); f.Key() != "member(n,r)" {
		t.Errorf("MemberFact = %v", f)
	}
}

// TestAggSelDetectableInShippedPrograms holds every shipped program to
// one verdict table: which source predicates the planner proves safe to
// prune (DESIGN.md §11 "Which selections prune"), and which rule keeps
// the others unpruned. The parsed program and the localized one the
// engine compiles must agree.
func TestAggSelDetectableInShippedPrograms(t *testing.T) {
	for _, c := range []struct {
		name, src string
		want      map[string]string // source predicate -> "" (pruned) or the failing rule
	}{
		{"ShortestPath", ShortestPath(""), map[string]string{"path": ""}},
		{"ShortestPathDV", ShortestPathDV(""), map[string]string{"path": ""}},
		{"MagicShortestPath", MagicShortestPath(), map[string]string{}},
		{"CachedSourceRoute", CachedSourceRoute(), map[string]string{"pathDst": "", "answer": "rule an2 "}},
		{"Multicast+DV", Combine(ShortestPathDV(""), Multicast()), map[string]string{"path": "", "child": "count "}},
		{"Chord", Chord(DefaultChordConfig()), map[string]string{"finger": "", "succ": "rule f0 "}},
		{"LinkState", LinkState(DefaultMaxHop), map[string]string{"lpath": ""}},
		{"Gossip", Gossip(DefaultGossipConfig()), map[string]string{"rumor": ""}},
	} {
		prog, err := parser.Parse(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		local, err := planner.Localize(prog)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got, gotLocal := aggSelVerdicts(t, c.name, prog), aggSelVerdicts(t, c.name, local)
		if !maps.Equal(got, gotLocal) {
			t.Errorf("%s: parsed verdicts %v, localized %v", c.name, got, gotLocal)
		}
		if len(got) != len(c.want) {
			t.Errorf("%s: selections on %v, want %v", c.name, got, c.want)
		}
		for src, want := range c.want {
			why, ok := got[src]
			switch {
			case !ok:
				t.Errorf("%s: no selection on %s", c.name, src)
			case want == "" && why != "":
				t.Errorf("%s: %s not pruned: %s", c.name, src, why)
			case want != "" && !strings.HasPrefix(why, want):
				t.Errorf("%s: %s verdict %q, want one starting %q", c.name, src, why, want)
			}
		}
	}
}

// aggSelVerdicts maps each source predicate of p's aggregate selections
// to its verdict, checking that every selection on it carries the same
// one and that Prunable agrees with it.
func aggSelVerdicts(t *testing.T, name string, p *ast.Program) map[string]string {
	t.Helper()
	got := map[string]string{}
	for _, s := range planner.DetectAggSelections(p) {
		if prev, ok := got[s.SrcPred]; ok && prev != s.NotPruned {
			t.Errorf("%s: selections on %s disagree: %q vs %q", name, s.SrcPred, prev, s.NotPruned)
		}
		got[s.SrcPred] = s.NotPruned
		if s.Prunable() != (s.NotPruned == "") {
			t.Errorf("%s: %s over %s: Prunable() = %v with verdict %q", name, s.AggPred, s.SrcPred, s.Prunable(), s.NotPruned)
		}
	}
	return got
}
