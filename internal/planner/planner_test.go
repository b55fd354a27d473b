package planner

import (
	"strings"
	"testing"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
	"ndlog/internal/parser"
)

func parse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

// check returns the Definition 6 violations the planner's input must be
// free of, one message a line ("" for none).
func check(p *ast.Program) string {
	var msgs []string
	for _, d := range analysis.Definition6(p) {
		msgs = append(msgs, d.Msg)
	}
	return strings.Join(msgs, "\n")
}

const spSrc = `
materialize(link, infinity, infinity, keys(1,2)).
SP1 path(@S,@D,@D,P,C) :- #link(@S,@D,C), P := f_concatPath(S, [D]).
SP2 path(@S,@D,@Z,P,C) :- #link(@S,@Z,C1), path(@Z,@D,@Z2,P2,C2),
	C := C1 + C2, P := f_concatPath(S, P2), f_member(P2, S) == false.
SP3 spCost(@S,@D,min<C>) :- path(@S,@D,@Z,P,C).
SP4 shortestPath(@S,@D,P,C) :- spCost(@S,@D,C), path(@S,@D,@Z,P,C).
query shortestPath(@S,@D,P,C).
`

func TestCheckAcceptsShortestPath(t *testing.T) {
	if msg := check(parse(t, spSrc)); msg != "" {
		t.Fatalf("check: %s", msg)
	}
}

func TestCheckRejections(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"no location specifier", `r p(X) :- q(@X, X).`, "location specifier"},
		{"plain first attribute", `r p(@S) :- q(S).`, "location specifier"},
		{"address type safety", `r p(@S, D) :- q(@S, @D), r2(@S, D).`, "address"},
		{"derived link", `r link(@S,@D) :- #link(@S,@Z), hop(@Z,@D).`, "link relation"},
		{"two links", `r p(@S) :- #link(@S,@D), #link(@S,@Z), q(@D), w(@Z).`, "exactly one link"},
		{"no link non-local", `r p(@S) :- q(@S), w(@D).`, "exactly one link"},
		{"off-link atom", `r p(@S) :- #link(@S,@D), q(@Z).`, "not at link endpoint"},
		{"unbound head var", `r p(@S, X) :- q(@S).`, "unbound"},
		{"unbound select", `r p(@S) :- q(@S), X < 3.`, "unbound"},
		{"unbound assign input", `r p(@S, Y) :- q(@S), Y := X + 1.`, "unbound"},
		{"assign rebind", `r p(@S, X) :- q(@S, X), X := 3.`, "rebinds"},
		{"agg over unbound", `r p(@S, min<C>) :- q(@S).`, "unbound"},
		{"two aggregates", `r p(@S, min<C>, max<C>) :- q(@S, C).`, "one aggregate"},
		{"nullary predicate", `r p(@S) :- q(@S), z().`, "location"},
		{"link endpoints const", `r p(@S) :- #link(@S, @b, C), q(@b2).`, "endpoint"},
	}
	for _, c := range cases {
		msg := check(parse(t, c.src))
		if msg == "" {
			t.Errorf("%s: check accepted %q", c.name, c.src)
			continue
		}
		if !strings.Contains(msg, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, msg, c.want)
		}
	}
}

func TestCheckBadFactAndQuery(t *testing.T) {
	if check(parse(t, `p(1, a).`)) == "" {
		t.Error("fact with non-address first field accepted")
	}
	prog := parse(t, `r p(@S) :- q(@S).`)
	prog.Query = &ast.Atom{Pred: "p"}
	if check(prog) == "" {
		t.Error("nullary query accepted")
	}
}

func TestLinkRelationsAndIDB(t *testing.T) {
	p := parse(t, spSrc)
	links := LinkRelations(p)
	if !links["link"] || len(links) != 1 {
		t.Errorf("links = %v", links)
	}
	idb := IDBPredicates(p)
	for _, want := range []string{"path", "spCost", "shortestPath"} {
		if !idb[want] {
			t.Errorf("idb missing %s", want)
		}
	}
	if idb["link"] {
		t.Error("link should not be IDB")
	}
}

func TestLocalizeShortestPath(t *testing.T) {
	p := parse(t, spSrc)
	lp, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	// SP2 splits into two rules; others survive.
	if len(lp.Rules) != 5 {
		t.Fatalf("rules after localization = %d, want 5:\n%s", len(lp.Rules), lp)
	}
	for _, r := range lp.Rules {
		if !bodySingleSite(r) {
			t.Errorf("rule %s still multi-site", r)
		}
	}
	// The shipped predicate must carry C1 (needed by the assign) and be
	// located at the link destination.
	var ship, final *ast.Rule
	for _, r := range lp.Rules {
		switch r.Label {
		case "SP2a":
			ship = r
		case "SP2b":
			final = r
		}
	}
	if ship == nil || final == nil {
		t.Fatalf("missing split rules:\n%s", lp)
	}
	if ship.Head.LocVar() != "Z" {
		t.Errorf("ship head located at @%s, want @Z", ship.Head.LocVar())
	}
	if la := ship.LinkAtom(); la == nil {
		t.Error("ship rule lost its link literal")
	}
	carried := atomVars([]*ast.Atom{&ship.Head})
	for _, want := range []string{"S", "Z", "C1"} {
		if !carried[want] {
			t.Errorf("ship head missing variable %s: %s", want, ship)
		}
	}
	// The final rule evaluates at @Z and ships path tuples back to @S.
	loc, remote, err := EvalSite(final)
	if err != nil {
		t.Fatal(err)
	}
	if loc != "Z" || !remote {
		t.Errorf("final rule site = %s remote=%v, want Z/true", loc, remote)
	}
	// Assignments and selections must survive in the final rule.
	var assigns, selects int
	for _, term := range final.Body {
		switch term.(type) {
		case *ast.Assign:
			assigns++
		case *ast.Select:
			selects++
		}
	}
	if assigns != 2 || selects != 1 {
		t.Errorf("final rule assigns=%d selects=%d: %s", assigns, selects, final)
	}
	// The final rule must not join a reverse link literal: the return
	// trip to @S is routed directly (see Localize doc comment), so the
	// only atoms are the ship predicate and the destination-side ones.
	for _, a := range final.Atoms() {
		if a.Link {
			t.Errorf("final rule should not contain a link literal: %s", final)
		}
	}
}

func TestLocalizeKeepsLocalRules(t *testing.T) {
	p := parse(t, `
r1 p(@S, C) :- q(@S, C).
r2 p(@D, C) :- #link(@S,@D,C), q(@S, C).
`)
	lp, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	// r1 is local; r2's body is all at @S (single-site) even though the
	// head ships to @D — neither needs splitting.
	if len(lp.Rules) != 2 {
		t.Fatalf("rules = %d, want 2:\n%s", len(lp.Rules), lp)
	}
}

func TestLocalizeBothSidesAndHeadAtSource(t *testing.T) {
	// Source-side atom q, dest-side atom w, head back at source.
	p := parse(t, `
r p(@S, X, Y) :- #link(@S,@D,C), q(@S, X), w(@D, Y), X < Y.
`)
	lp, err := Localize(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(lp.Rules) != 2 {
		t.Fatalf("rules = %d:\n%s", len(lp.Rules), lp)
	}
	ship, final := lp.Rules[0], lp.Rules[1]
	// Ship rule body: link + q at @S.
	if got := len(ship.Atoms()); got != 2 {
		t.Errorf("ship atoms = %d: %s", got, ship)
	}
	carried := atomVars([]*ast.Atom{&ship.Head})
	if !carried["X"] {
		t.Errorf("ship must carry X: %s", ship)
	}
	if carried["C"] {
		t.Errorf("ship should not carry unused C: %s", ship)
	}
	loc, remote, err := EvalSite(final)
	if err != nil {
		t.Fatal(err)
	}
	if loc != "D" || !remote {
		t.Errorf("final site = %s remote=%v", loc, remote)
	}
	if final.Head.LocVar() != "S" {
		t.Errorf("final head at @%s, want @S", final.Head.LocVar())
	}
}

func TestLocalizeErrors(t *testing.T) {
	// Multi-site body with no link literal cannot be localized. (Check
	// would reject it too; Localize must not panic.)
	p := parse(t, `r p(@S) :- q(@S), w(@D).`)
	if _, err := Localize(p); err == nil {
		t.Error("expected error for link-free multi-site rule")
	}
}

func TestEvalSiteErrors(t *testing.T) {
	p := parse(t, `r p(@S) :- q(@S), w(@D).`)
	if _, _, err := EvalSite(p.Rules[0]); err == nil {
		t.Error("EvalSite should reject multi-site body")
	}
	// Body-free rule (facts-only head) uses the head location.
	p2 := parse(t, `r p(@S, C) :- q(@S, C).`)
	loc, remote, err := EvalSite(p2.Rules[0])
	if err != nil || loc != "S" || remote {
		t.Errorf("EvalSite = %s %v %v", loc, remote, err)
	}
}

func TestDetectAggSelections(t *testing.T) {
	p := parse(t, spSrc)
	sels := DetectAggSelections(p)
	if len(sels) != 1 {
		t.Fatalf("selections = %v", sels)
	}
	s := sels[0]
	if s.SrcPred != "path" || s.AggPred != "spCost" || s.Func != ast.AggMin {
		t.Errorf("selection = %+v", s)
	}
	if len(s.GroupCols) != 2 || s.GroupCols[0] != 0 || s.GroupCols[1] != 1 {
		t.Errorf("group cols = %v", s.GroupCols)
	}
	if s.ValueCol != 4 {
		t.Errorf("value col = %d", s.ValueCol)
	}
	if !s.Prunable() {
		t.Error("min selection should be prunable")
	}
}

func TestDetectAggSelectionsNegative(t *testing.T) {
	// count aggregates are detected but not prunable.
	p := parse(t, `r c(@S, count<D>) :- path(@S, D).`)
	sels := DetectAggSelections(p)
	if len(sels) != 1 || sels[0].Prunable() {
		t.Errorf("count selection = %v", sels)
	}
	// Head group var not present in body: not detectable.
	p2 := parse(t, `r c(@S, X, min<D>) :- path(@S, D), X := D + 1.`)
	if sels := DetectAggSelections(p2); len(sels) != 0 {
		t.Errorf("undetectable selection reported: %v", sels)
	}
}

// TestAggSelProofNegative: each condition of the safety proof, broken
// once in the Figure 1 program, keeps the selection unpruned and names
// the rule that broke it.
func TestAggSelProofNegative(t *testing.T) {
	for _, c := range []struct{ name, src, want string }{
		{"non-group scalar in head",
			spSrc + `X1 hop(@Z,@D,Z2) :- path(@Z,@D,@Z2,P2,C2), C := C2 + 1, P := f_append(P2, Z).`,
			"rule X1 carries non-group Z2 into its head"},
		{"max with a non-aggregate consumer",
			`M1 top(@N,max<C>) :- score(@N,K,C).
M2 seen(@N,K,C) :- score(@N,K,C).`,
			"rule M2 is not an aggregate or a join back, and only a min selection prunes through an extension"},
		{"guard other than the cycle guard",
			strings.Replace(spSrc, "f_member(P2, S) == false.", "f_member(P2, S) == false, C2 < 10.", 1),
			"rule SP2 reads non-group C2 in C2 < 10"},
		{"two atoms of the source",
			spSrc + `X2 pair(@S,@D,C) :- path(@S,@D,@Z,P,C), path(@S,@Z,@D,P2,C2).`,
			"rule X2 joins two path atoms"},
	} {
		sels := DetectAggSelections(parse(t, c.src))
		if len(sels) != 1 {
			t.Fatalf("%s: selections = %+v", c.name, sels)
		}
		if s := sels[0]; s.Prunable() || s.NotPruned != c.want {
			t.Errorf("%s: Prunable() = %v, verdict %q, want %q", c.name, s.Prunable(), s.NotPruned, c.want)
		}
	}
}

func TestReorder(t *testing.T) {
	p := parse(t, `r p(@S) :- q(@S), w(@S).`)
	r := p.Rules[0]
	if err := Reorder(r, 0, 1); err != nil {
		t.Fatal(err)
	}
	if r.Atoms()[0].Pred != "w" {
		t.Errorf("reorder failed: %s", r)
	}
	if err := Reorder(r, 0, 5); err == nil {
		t.Error("out-of-range reorder accepted")
	}
}
