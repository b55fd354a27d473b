package main

import (
	"os"
	"testing"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
)

func loadTestProgram(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../testdata/shortestpath.ndl")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

func TestFactAddresses(t *testing.T) {
	prog, err := parser.Parse(loadTestProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	addrs := factAddresses(prog)
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true, "e": true}
	if len(addrs) != len(want) {
		t.Fatalf("addresses = %v", addrs)
	}
	for _, a := range addrs {
		if !want[a] {
			t.Errorf("unexpected address %q", a)
		}
	}
}

func TestLinkPairs(t *testing.T) {
	prog, err := parser.Parse(loadTestProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	pairs := linkPairs(prog)
	if len(pairs) != 10 {
		t.Fatalf("pairs = %d, want 10 (5 bidirectional links)", len(pairs))
	}
	seen := map[[2]string]bool{}
	for _, p := range pairs {
		seen[p] = true
	}
	for _, must := range [][2]string{{"a", "b"}, {"b", "a"}, {"e", "a"}} {
		if !seen[must] {
			t.Errorf("missing pair %v", must)
		}
	}
}

func TestLinkPairsIgnoresNonLinkFacts(t *testing.T) {
	prog, err := parser.Parse(`
r1 p(@S) :- #edge(@S,@D).
edge(a, b).
other(a, b).
short(a).
`)
	if err != nil {
		t.Fatal(err)
	}
	pairs := linkPairs(prog)
	if len(pairs) != 1 || pairs[0] != [2]string{"a", "b"} {
		t.Errorf("pairs = %v", pairs)
	}
}

// TestExplainMatchesGolden keeps `ndlog -explain testdata/shortestpath.ndl`
// equal to testdata/shortestpath.plan, the file CI diffs the command
// against.
func TestExplainMatchesGolden(t *testing.T) {
	prog, err := parser.Parse(loadTestProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := engine.Explain(prog)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../testdata/shortestpath.plan")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("plan changed; regenerate with `go run ./cmd/ndlog -explain testdata/shortestpath.ndl > testdata/shortestpath.plan` and review:\n%s", got)
	}
}
