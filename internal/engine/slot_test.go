package engine

import (
	"errors"
	"strings"
	"testing"

	"ndlog/internal/funcs"
	"ndlog/internal/planner"
	"ndlog/internal/val"
)

// TestCompileReportsAllViolations: Compile refuses a program that breaks
// Definition 6 with every violation joined, one *planner.CheckError
// each, instead of stopping at the first.
func TestCompileReportsAllViolations(t *testing.T) {
	src := `
b1 res(S, N) :- ping(S, N).
b2 res(@S, X) :- ping(@S, Y), Y > 0.
`
	_, err := Compile(mustParse(t, src))
	if err == nil {
		t.Fatal("want error")
	}
	msg := err.Error()
	for _, want := range []string{"location specifier", "head variable X is unbound"} {
		if !strings.Contains(msg, want) {
			t.Errorf("joined error missing %q:\n%s", want, msg)
		}
	}
	var ce *planner.CheckError
	if !errors.As(err, &ce) {
		t.Errorf("errors.As should surface a *planner.CheckError from %v", err)
	}
}

// compileOne compiles a one-rule program and returns the strand
// triggered by pred.
func compileOne(t *testing.T, src, pred string) (*Program, *strand) {
	t.Helper()
	p, err := Compile(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	sts := p.strands[pred]
	if len(sts) == 0 {
		t.Fatalf("no strand triggered by %s", pred)
	}
	return p, sts[0]
}

const slotTestProg = `
materialize(link, infinity, infinity, keys(1,2)).
materialize(path, infinity, infinity, keys(1,2,3)).
sp2 path(@S,D,C) :- #link(@S,@Z,C1), path(@Z,D,C2), C := C1 + C2, C < 100.
`

// TestUnifySlots exercises the slot-based trigger unification: fresh
// bindings, constant mismatch, repeated-variable consistency, arity.
func TestUnifySlots(t *testing.T) {
	_, st := compileOne(t, `
materialize(q, infinity, infinity, keys(1)).
r1 p(@A,B) :- q(@A,B,B).
`, "q")
	args := st.code.args[st.trigger]
	env := funcs.NewSlotEnv(st.code.nslots)

	if !unifySlots(args, val.NewTuple("q", val.NewAddr("a"), val.NewInt(1), val.NewInt(1)), env) {
		t.Error("consistent repeated variable should unify")
	}
	env.Reset()
	if unifySlots(args, val.NewTuple("q", val.NewAddr("a"), val.NewInt(1), val.NewInt(2)), env) {
		t.Error("inconsistent repeated variable should fail")
	}
	env.Reset()
	if unifySlots(args, val.NewTuple("q", val.NewAddr("a"), val.NewInt(1)), env) {
		t.Error("arity mismatch should fail")
	}
}

// TestJoinTrailUnwinds verifies that trail unwinding isolates join
// candidates: bindings from one candidate never leak into the next.
func TestJoinTrailUnwinds(t *testing.T) {
	c := central(t, slotTestProg, Options{})
	link := func(a, b string, cost int64) val.Tuple {
		return val.NewTuple("link", val.NewAddr(a), val.NewAddr(b), val.NewInt(cost))
	}
	base := func(a, b string, cost int64) val.Tuple {
		return val.NewTuple("path", val.NewAddr(a), val.NewAddr(b), val.NewInt(cost))
	}
	// Two stored path partners for the same link trigger: the join must
	// try both candidates with clean environments.
	c.Insert(base("b", "c", 1))
	c.Insert(base("b", "d", 2))
	c.Insert(link("a", "b", 10))

	got := c.Tuples("path")
	want := []val.Tuple{
		base("a", "c", 11),
		base("a", "d", 12),
		base("b", "c", 1),
		base("b", "d", 2),
	}
	if len(got) != len(want) {
		t.Fatalf("path tuples = %v, want %v", got, want)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Errorf("path[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestSelectionPrunesViaCompiledTail checks compiled selections filter
// derivations (C < 100 above) without poisoning sibling candidates.
func TestSelectionPrunesViaCompiledTail(t *testing.T) {
	c := central(t, slotTestProg, Options{})
	link := func(a, b string, cost int64) val.Tuple {
		return val.NewTuple("link", val.NewAddr(a), val.NewAddr(b), val.NewInt(cost))
	}
	base := func(a, b string, cost int64) val.Tuple {
		return val.NewTuple("path", val.NewAddr(a), val.NewAddr(b), val.NewInt(cost))
	}
	c.Insert(base("b", "c", 95)) // 10+95 = 105: pruned by C < 100
	c.Insert(base("b", "d", 5))  // 10+5 = 15: derived
	c.Insert(link("a", "b", 10))

	for _, p := range c.Tuples("path") {
		if p.Fields[2].Int() >= 100 {
			t.Errorf("selection failed to prune %v", p)
		}
	}
	found := false
	for _, p := range c.Tuples("path") {
		if p.Equal(base("a", "d", 15)) {
			found = true
		}
	}
	if !found {
		t.Error("expected derivation path(a,d,15) missing")
	}
}

// TestStrandCodeShape pins the compiled form: head fast paths, probe
// plans carrying slots, and rule-level code sharing across strands.
// Localization may rewrite the source rule, so the join rule is found
// by its shape (two body atoms, assignment + selection tail).
func TestStrandCodeShape(t *testing.T) {
	p, err := Compile(mustParse(t, slotTestProg))
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[*ruleCode][]*strand{}
	for _, sts := range p.strands {
		for _, st := range sts {
			byRule[st.code] = append(byRule[st.code], st)
		}
	}
	var join *strand
	for _, sts := range byRule {
		if len(sts[0].atoms) == 2 && len(sts[0].code.tail) == 2 {
			join = sts[0]
		}
		// Every strand of a rule shares one ruleCode, one per body atom.
		if len(sts) != len(sts[0].atoms) {
			t.Errorf("rule %s: %d strands for %d atoms", sts[0].rule.Label, len(sts), len(sts[0].atoms))
		}
	}
	if join == nil {
		t.Fatal("no compiled rule with two atoms and a two-op tail")
	}
	code := join.code
	// Head: every argument of the join rule is a plain variable — all
	// direct slot copies, no compiled expressions.
	for i, ha := range code.head {
		if ha.slot < 0 {
			t.Errorf("head arg %d should be a direct slot copy", i)
		}
	}
	// Tail: the assignment (slot >= 0) precedes the selection (slot < 0).
	if code.tail[0].assignSlot < 0 || code.tail[1].assignSlot >= 0 {
		t.Errorf("tail shape = %+v", code.tail)
	}
	// The non-trigger atom has a probe plan with every bound value
	// sourced from a slot or a constant.
	other := 1 - join.trigger
	if len(join.paths[other].hash) == 0 {
		t.Errorf("atom %d should have a probe plan", other)
	}
	for _, pa := range join.paths[other].hash {
		if pa.slot < 0 && pa.constVal.IsNil() {
			t.Errorf("probe arg %+v has neither slot nor constant", pa)
		}
	}
	if p.maxSlots < code.nslots {
		t.Errorf("program maxSlots %d < rule nslots %d", p.maxSlots, code.nslots)
	}
}
