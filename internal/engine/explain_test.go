package engine

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ndlog/internal/programs"
)

var updatePlans = flag.Bool("update", false, "rewrite testdata/plans/*.plan from the current compiler")

// TestExplainGolden pins the access-path plan of the shipped programs: a
// change to the rule that picks paths, or to a program's keys, shows up as
// a reviewed diff of testdata/plans (regenerate with -update).
func TestExplainGolden(t *testing.T) {
	for name, src := range map[string]string{
		"shortestpath":    programs.ShortestPath(""),
		"shortestpath_dv": programs.ShortestPathDV(""),
		"magic":           programs.MagicShortestPath(),
		"chord":           programs.Chord(programs.DefaultChordConfig()),
	} {
		t.Run(name, func(t *testing.T) {
			got, err := Explain(mustParse(t, src))
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.Join("testdata", "plans", name+".plan")
			if *updatePlans {
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("plan of %s changed (rerun with -update and review the diff):\n%s", name, got)
			}
		})
	}
}

// TestExplainFigure1 reads the two probes the access-path rule exists for
// off the Figure 1 plan: sp4 reaches path through the aggregate
// selection's group index and spCost through its primary key.
func TestExplainFigure1(t *testing.T) {
	plan, err := Explain(mustParse(t, programs.ShortestPath("")))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"on spCost: path group[0,1] +unify(4)",
		"on path: spCost pk(0,1)",
	} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan lacks %q:\n%s", want, plan)
		}
	}
}

// TestPathIndexBudget: a ShortestPath node files each path row under the
// location index and the aggregate-selection group index and nothing
// else, and spCost rows under no index at all — every other probe rides a
// primary key or the group index. Aggregate selections on or off, the
// plan is the program's.
func TestPathIndexBudget(t *testing.T) {
	for _, opts := range []Options{{}, {AggSel: true}} {
		c := central(t, programs.ShortestPath(""), opts)
		got := map[string]bool{}
		for _, ix := range c.Node().Catalog().Get("path").Indexes() {
			got[colList(ix.Cols(), "[", "]")] = true
		}
		if len(got) != 2 || !got["[0]"] || !got["[0,1]"] {
			t.Errorf("AggSel=%v: path maintains indexes %v, want exactly [0] and [0,1]", opts.AggSel, got)
		}
		if ixs := c.Node().Catalog().Get("spCost").Indexes(); len(ixs) != 0 {
			t.Errorf("AggSel=%v: spCost maintains %d indexes, want none", opts.AggSel, len(ixs))
		}
		for _, ctrls := range c.Node().sels {
			for _, ctrl := range ctrls {
				if !slices.Contains(c.Node().Catalog().Get(ctrl.sel.SrcPred).Indexes(), ctrl.idx) {
					t.Errorf("selection on %s holds an index its table does not maintain", ctrl.sel.SrcPred)
				}
			}
		}
	}
}
