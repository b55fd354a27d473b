package engine

import (
	"testing"

	"ndlog/internal/parser"
)

// TestJournalTapSelectsRecoverableState: the journal sees every
// processed delta on base hard state (duplicates included — counts are
// replay-significant) and on soft state, but never derived hard state,
// which recovery rebuilds by rederivation.
func TestJournalTapSelectsRecoverableState(t *testing.T) {
	src := reachSrc + `
materialize(beacon, 30, infinity, keys(1,2)).
b1 beacon(@S,@D) :- #edge(@S,@D).
`
	for _, mode := range []Mode{PSN, SN} {
		prog, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewCentral(prog, Options{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		var got []Delta
		c.Node().SetJournal(func(d Delta) { got = append(got, d) })
		c.Insert(edgeAt("a", "b"))
		c.Insert(edgeAt("b", "c"))
		c.Insert(edgeAt("a", "b")) // duplicate: bumps the count, must journal
		c.Delete(edgeAt("b", "c"))

		counts := map[string]int{}
		for _, d := range got {
			counts[d.Tuple.Pred]++
			if d.Tuple.Pred == "reach" {
				t.Fatalf("%v: derived hard state journaled: %v", mode, d)
			}
		}
		if counts["edge"] != 4 {
			t.Errorf("%v: journaled %d edge deltas, want 4 (3 inserts + 1 delete)", mode, counts["edge"])
		}
		// beacon is rule-derived but soft: replay cannot rebuild lapsed
		// TTLs by rederivation alone, so its deltas are journaled too.
		if counts["beacon"] == 0 {
			t.Errorf("%v: derived soft state not journaled", mode)
		}
		n := len(got)
		c.Node().SetJournal(nil)
		c.Insert(edgeAt("c", "d"))
		if len(got) != n {
			t.Errorf("%v: journal fired after uninstall", mode)
		}
	}
}

// TestJournalReplayRebuildsFixpoint: replaying the journal into a fresh
// node reproduces the original fixpoint with no rederivation sweep —
// the invariant WAL recovery rests on.
func TestJournalReplayRebuildsFixpoint(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var journal []Delta
	c.Node().SetJournal(func(d Delta) { journal = append(journal, d) })
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}} {
		c.Insert(edgeAt(e[0], e[1]))
	}
	c.Delete(edgeAt("a", "c"))

	r, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range journal {
		r.Node().Push(d)
	}
	r.Fixpoint()
	for _, pred := range []string{"edge", "reach"} {
		want := c.Tuples(pred)
		got := r.Tuples(pred)
		if len(got) != len(want) {
			t.Fatalf("%s: replay rebuilt %d tuples, want %d", pred, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s[%d]: %v vs %v", pred, i, got[i], want[i])
			}
		}
	}
}
