package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// series is one metric of one workload across a document's sets.
type series struct {
	values []float64
	failed int // checks failed, summed over the sets
}

func (s series) quartiles() (q1, med, q3 float64) {
	return quantile(s.values, 0.25), median(s.values), quantile(s.values, 0.75)
}

// collect indexes a document by workload, then metric. pick selects
// which of a workload's two results to read.
func collect(doc document, pick func(workloadReport) *result) map[string]map[string]series {
	out := map[string]map[string]series{}
	for _, set := range doc.Sets {
		for name, rep := range set {
			r := pick(rep)
			if r == nil {
				continue
			}
			if out[name] == nil {
				out[name] = map[string]series{}
			}
			for metric, m := range r.Metrics {
				s := out[name][metric]
				s.values = append(s.values, m.Value)
				s.failed += r.Failed
				out[name][metric] = s
			}
		}
	}
	return out
}

func endToEndOf(r workloadReport) *result { return r.EndToEnd }
func perLayerOf(r workloadReport) *result { return r.PerLayer }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// reportSets prints each end-to-end metric's spread across the sets of
// one document. With check, two sets must agree within every metric's
// own bound: the self-agreement gate.
func reportSets(w io.Writer, doc document, check bool) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian\tspread\tbound\t")
	data := collect(doc, endToEndOf)
	var bad []string
	for _, name := range sortedKeys(data) {
		for _, d := range endToEnd {
			s := data[name][d.Name]
			lo, hi := slices.Min(s.values), slices.Max(s.values)
			apart := ratio(hi-lo, lo)
			note := ""
			switch {
			case !check || apart <= d.Bound:
			case d.Name == "setup_s":
				// A set-up is a millisecond of work or less; two single
				// runs of it differ by up to 40 % here. The driver, too,
				// holds setup_s to its bound on medians of ten runs only.
				note = "apart (not gated on single runs)"
			default:
				note = "DISAGREE"
				bad = append(bad, fmt.Sprintf("%s %s: sets differ by %.1f%%, bound %.0f%%", name, d.Name, 100*apart, 100*d.Bound))
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.1f%%\t%.0f%%\t%s\n", name, d.Name, median(s.values), d.Unit, 100*apart, 100*d.Bound, note)
		}
		if s := data[name][endToEnd[0].Name]; s.failed > 0 {
			bad = append(bad, fmt.Sprintf("%s: %d checks failed", name, s.failed))
		}
	}
	tw.Flush()
	if len(bad) > 0 {
		return fmt.Errorf("sets do not agree:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func loadDocument(path string) (document, error) {
	var doc document
	b, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Sets) == 0 {
		return doc, fmt.Errorf("%s: no result sets", path)
	}
	return doc, nil
}

// diffFiles compares two result documents metric by metric. Every
// end-to-end metric is lower-is-better: new regresses when its median
// is worse than old's by more than the metric's bound; a pair whose own
// set-to-set spread exceeds the bound is unresolved rather than
// unchanged. Per-layer rows carry the ratio only. The error return is
// the exit status: a regression, or more failed checks than before.
func diffFiles(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := loadDocument(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := loadDocument(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told q1/median/q3\tnew q1/median/q3\tnew/old\tverdict\t")
	var bad []string
	oldE, newE := collect(oldDoc, endToEndOf), collect(newDoc, endToEndOf)
	for _, name := range sortedKeys(newE) {
		for _, d := range endToEnd {
			o, n := oldE[name][d.Name], newE[name][d.Name]
			if len(o.values) == 0 || len(n.values) == 0 {
				continue
			}
			_, om, _ := o.quartiles()
			_, nm, _ := n.quartiles()
			verdict := "ok"
			switch {
			case nm > om*(1+d.Bound):
				verdict = "REGRESSED"
				bad = append(bad, fmt.Sprintf("%s %s: %.6g → %.6g %s (%.1f%% of %.6g, bound %.0f%%)",
					name, d.Name, om, nm, d.Unit, 100*ratio(nm, om), om, 100*d.Bound))
			case spread(o.values) > d.Bound || spread(n.values) > d.Bound:
				verdict = "unresolved"
			case nm < om*(1-d.Bound):
				verdict = "improved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f of %.6g %s\t%s\n", name, d.Name, fmtQuartiles(o), fmtQuartiles(n), ratio(nm, om), om, d.Unit, verdict)
		}
		if o, n := oldE[name][endToEnd[0].Name], newE[name][endToEnd[0].Name]; n.failed > o.failed {
			bad = append(bad, fmt.Sprintf("%s: failed checks rose from %d to %d", name, o.failed, n.failed))
		}
	}
	oldL, newL := collect(oldDoc, perLayerOf), collect(newDoc, perLayerOf)
	for _, name := range sortedKeys(newL) {
		for _, d := range perLayer {
			o, n := oldL[name][d.Name], newL[name][d.Name]
			if len(o.values) == 0 || len(n.values) == 0 || (median(o.values) == 0 && median(n.values) == 0) {
				continue
			}
			om, nm := median(o.values), median(n.values)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%.3f of %.6g %s\t\n", name, d.Name, fmtQuartiles(o), fmtQuartiles(n), ratio(nm, om), om, d.Unit)
		}
	}
	tw.Flush()
	if len(bad) > 0 {
		return fmt.Errorf("regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}

func fmtQuartiles(s series) string {
	q1, med, q3 := s.quartiles()
	return fmt.Sprintf("%.5g/%.5g/%.5g n=%d", q1, med, q3, len(s.values))
}
