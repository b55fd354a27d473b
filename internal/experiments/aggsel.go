package experiments

import (
	"fmt"
	"math"
	"strings"

	"ndlog/internal/engine"
	"ndlog/internal/metrics"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
)

// SPResult is one metric's outcome in the aggregate-selections
// experiment (Figures 7-10 and the Section 6.2 summary numbers).
type SPResult struct {
	Metric         topology.Metric
	ConvergenceSec float64
	TotalMB        float64
	PeakKBps       float64
	Bandwidth      []metrics.Point // per-node kBps over time (Fig 7/9)
	Completion     []metrics.Point // fraction of best paths over time (Fig 8/10)
	Missing        int             // oracle pairs never answered (0 expected)
	Wrong          int             // oracle pairs answered with a wrong cost
}

// RunAggSel runs the all-pairs shortest-path query under every link
// metric with aggregate selections enabled. period == 0 reproduces
// Figures 7/8 (immediate propagation); period > 0 reproduces Figures
// 9/10 (periodic aggregate selections with the given flush interval).
func RunAggSel(cfg Config, period float64) ([]SPResult, error) {
	o := BuildOverlay(cfg)
	var out []SPResult
	for _, m := range topology.AllMetrics() {
		r, err := runOneMetric(cfg, o, m, period)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", m, err)
		}
		out = append(out, r)
	}
	return out, nil
}

func runOneMetric(cfg Config, o *topology.Overlay, m topology.Metric, period float64) (SPResult, error) {
	want := oracle(o, m)
	opts := engine.Options{AggSel: true}
	comp := trackCompletion(&opts, "shortestPath", want)
	dep, err := deploy(cfg, o, programs.ShortestPath(""), opts, engine.ClusterConfig{AggSelPeriod: period},
		map[string]topology.Metric{"": m}, nil)
	if err != nil {
		return SPResult{}, err
	}
	ok, err := dep.cluster.Run(cfg.MaxEvents)
	if err != nil {
		return SPResult{}, err
	}
	if !ok {
		return SPResult{}, fmt.Errorf("did not quiesce within %d events", cfg.MaxEvents)
	}
	missing, wrong := VerifyAgainstOracle(dep.cluster, "shortestPath", want)
	conv := comp.ConvergenceTime()
	if math.IsNaN(conv) {
		conv = dep.sim.LastDelivery()
	}
	return SPResult{
		Metric:         m,
		ConvergenceSec: conv,
		TotalMB:        dep.bw.TotalMB(),
		PeakKBps:       dep.bw.PeakKBps(),
		Bandwidth:      dep.bw.PerNodeKBps(),
		Completion:     comp.Series(cfg.Bucket),
		Missing:        missing,
		Wrong:          wrong,
	}, nil
}

// FormatAggSel renders the Figure 7/9 bandwidth series, the Figure 8/10
// completion series, and the Section 6.2 summary table.
func FormatAggSel(results []SPResult, period float64) string {
	var b strings.Builder
	title := "Figure 7/8: aggregate selections (immediate)"
	if period > 0 {
		title = fmt.Sprintf("Figure 9/10: periodic aggregate selections (%.0f ms)", period*1000)
	}
	fmt.Fprintf(&b, "== %s ==\n\n", title)

	labels := make([]string, len(results))
	bwSeries := make([][]metrics.Point, len(results))
	compSeries := make([][]metrics.Point, len(results))
	for i, r := range results {
		labels[i] = r.Metric.String()
		bwSeries[i] = r.Bandwidth
		compSeries[i] = r.Completion
	}
	b.WriteString("Per-node bandwidth (kBps) vs time (s):\n")
	b.WriteString(metrics.FormatSeries("time", labels, bwSeries))
	b.WriteString("\n% eventual best paths vs time (s):\n")
	b.WriteString(metrics.FormatSeries("time", labels, compSeries))
	b.WriteString("\nSummary (Section 6.2):\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %12s %8s %8s\n",
		"metric", "converge(s)", "total(MB)", "peak(kBps)", "missing", "wrong")
	for _, r := range results {
		fmt.Fprintf(&b, "%-14s %12.2f %12.3f %12.2f %8d %8d\n",
			r.Metric, r.ConvergenceSec, r.TotalMB, r.PeakKBps, r.Missing, r.Wrong)
	}
	return b.String()
}

// CompareAggSel summarizes the bandwidth reduction of periodic vs
// immediate aggregate selections per metric (the 17/12/16/29% numbers).
func CompareAggSel(immediate, periodic []SPResult) string {
	var b strings.Builder
	b.WriteString("Bandwidth reduction from periodic aggregate selections:\n")
	fmt.Fprintf(&b, "%-14s %12s %12s %10s\n", "metric", "immediate", "periodic", "reduction")
	for i := range immediate {
		im, pe := immediate[i], periodic[i]
		red := 0.0
		if im.TotalMB > 0 {
			red = 1 - pe.TotalMB/im.TotalMB
		}
		fmt.Fprintf(&b, "%-14s %9.3fMB %9.3fMB %10s\n",
			im.Metric, im.TotalMB, pe.TotalMB, fmtPct(red))
	}
	return b.String()
}
