package engine

import (
	"fmt"
	"sort"
	"strings"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
)

// Explain compiles prog and renders its access-path plan: per localized
// rule and trigger, the path through which the join reaches each other
// body atom, and per predicate the secondary indexes every node
// maintains, then the predicates whose insertions a node orders in its
// best-first lane (under PSN with aggregate selections). Columns are
// 0-based. The text is what the nodes execute —
// the strands and index list printed here are the ones Program.NewNode
// instantiates — and is stable for a given program, so it can be diffed.
func Explain(prog *ast.Program) (string, error) {
	p, err := Compile(prog)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	preds := map[string]bool{}
	for _, r := range p.source.Rules {
		fmt.Fprintf(&b, "%s %s\n", r.Label, r.Head.Pred)
		preds[r.Head.Pred] = true
		var code *ruleCode
		for i, a := range r.Atoms() {
			preds[a.Pred] = true
			var st *strand
			for _, s := range p.strands[a.Pred] {
				if s.rule == r && s.trigger == i {
					st = s
				}
			}
			code = st.code
			var joins []string
			for j, other := range st.atoms {
				if j != i {
					joins = append(joins, other.Pred+" "+st.paths[j].String())
				}
			}
			if len(joins) == 0 {
				joins = []string{"-"}
			}
			fmt.Fprintf(&b, "  on %s: %s\n", a.Pred, strings.Join(joins, ", "))
		}
		// A fused list assignment (see fusible) is built into the derived
		// tuple's own array, whichever strand derives it. (A rule with no
		// body atom has no strand.)
		if code == nil {
			continue
		}
		for i, ha := range code.head {
			if ha.list != nil {
				fmt.Fprintf(&b, "  head %s: %s in-tuple\n", r.Head.Args[i], ha.list.Name())
			}
		}
	}
	names := make([]string, 0, len(preds))
	for name := range preds {
		names = append(names, name)
	}
	sort.Strings(names)
	b.WriteString("indexes\n")
	for _, name := range names {
		key := analysis.Key{Inferred: p.inferred[name]}
		if d := p.decls[name]; d != nil && len(d.Keys) > 0 {
			key.Cols = d.Keys
		}
		var ixs []string
		for _, ix := range p.indexes[name] {
			ixs = append(ixs, ix.String())
		}
		if len(ixs) == 0 {
			ixs = []string{"-"}
		}
		fmt.Fprintf(&b, "  %s %s: %s\n", name, key, strings.Join(ixs, " "))
	}
	// The predicates a PSN node with aggregate selections orders in its
	// best-first lane, each by the column its selection aggregates.
	b.WriteString("lane (psn, aggsel)\n")
	for _, o := range p.lanes {
		dir := "ascending (min)"
		if o.desc {
			dir = "descending (max)"
		}
		fmt.Fprintf(&b, "  %s: col %d %s\n", o.pred, o.col, dir)
	}
	if len(p.lanes) == 0 {
		b.WriteString("  -\n")
	}
	return b.String(), nil
}

func (ix indexSpec) String() string {
	if ix.group {
		return "group" + colList(ix.cols, "[", "]")
	}
	return "index" + colList(ix.cols, "[", "]")
}

// String renders the path as EXPLAIN prints it: pk(0,1), group[0,1]
// +unify(4), index[0], scan.
func (ap accessPath) String() string {
	cols := make([]int, len(ap.hash))
	for i, pa := range ap.hash {
		cols[i] = pa.col
	}
	var s string
	switch ap.kind {
	case accessScan:
		return "scan"
	case accessPK:
		s = "pk" + colList(cols, "(", ")")
	default:
		s = indexSpec{cols: cols, group: ap.group}.String()
	}
	if len(ap.residual) > 0 {
		s += " +unify" + colList(ap.residual, "(", ")")
	}
	return s
}

func colList(cols []int, open, close string) string {
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprint(c)
	}
	return open + strings.Join(parts, ",") + close
}
