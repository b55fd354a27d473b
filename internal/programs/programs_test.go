package programs

import (
	"strings"
	"testing"

	"ndlog/internal/analysis"
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
		if err := planner.Check(prog); err != nil {
			t.Errorf("%s: check: %v", name, err)
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

// TestAggSelDetectableInShippedPrograms: the optimizer hooks the shipped
// programs rely on must stay detectable after parsing.
func TestAggSelDetectableInShippedPrograms(t *testing.T) {
	for name, src := range map[string]string{
		"ShortestPath":      ShortestPath(""),
		"ShortestPathDV":    ShortestPathDV(""),
		"CachedSourceRoute": CachedSourceRoute(),
	} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sels := planner.DetectAggSelections(prog)
		prunable := 0
		for _, s := range sels {
			if s.Prunable() {
				prunable++
			}
		}
		if prunable == 0 {
			t.Errorf("%s: no prunable aggregate selection detected", name)
		}
	}
}
