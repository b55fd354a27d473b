// Command bench is the repository's one benchmark: seven oracle-checked
// workloads over the four executors (engine.Cluster on simnet,
// engine.Central, engine.Parallel, netrun over loopback UDP with and
// without the WAL), end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run. See README.md.
//
// Driver contract (BENCHMARK.json):
//
//	bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics. Without --workload every
// workload runs, untraced then traced, and one JSON document holds all
// of it; -sets, -check and -diff work on such documents.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"text/tabwriter"
)

// header records where and on what a document was measured.
type header struct {
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Scale      string  `json:"scale"`
	Seconds    float64 `json:"seconds"`
}

// workloadReport is one workload's two runs in one set.
type workloadReport struct {
	EndToEnd *result        `json:"end_to_end"`
	PerLayer *result        `json:"per_layer,omitempty"`
	Samples  map[string]int `json:"samples"`
}

// document is what a run without --workload prints: every set of every
// workload's results.
type document struct {
	Header header                      `json:"header"`
	Sets   []map[string]workloadReport `json:"sets"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    string
	scale    string
	sets     int
	check    bool
	diff     bool
	traceOut string
	out      string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload (default: all seven)")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; 2 is held out for later claims")
	flag.Float64Var(&o.seconds, "seconds", 10, "time budget of one run of one workload")
	flag.StringVar(&o.trace, "trace", "", "0: untraced run, 1: traced run, empty: both")
	flag.StringVar(&o.scale, "scale", "paper", "paper, or smoke (14-node overlay, at most 10 ops)")
	flag.IntVar(&o.sets, "sets", 1, "repeat the untraced pass this many times and report the spread")
	flag.BoolVar(&o.check, "check", false, "with -sets 2: fail if the two sets differ by more than a metric's bound")
	flag.BoolVar(&o.diff, "diff", false, "compare two result documents: -diff old.json new.json")
	flag.StringVar(&o.traceOut, "trace-out", "", "write the traced runs' spans to this file as JSON")
	flag.StringVar(&o.out, "out", "", "also write the result document to this file")
	flag.Parse()
	if err := run(o, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options, args []string) error {
	if o.diff {
		if len(args) != 2 {
			return fmt.Errorf("-diff takes two result files")
		}
		return diffFiles(os.Stdout, args[0], args[1])
	}
	if len(args) != 0 {
		return fmt.Errorf("unexpected arguments %q", args)
	}
	if o.scale != "paper" && o.scale != "smoke" {
		return fmt.Errorf("unknown -scale %q", o.scale)
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return fmt.Errorf("-trace takes 0 or 1")
	}
	if o.seconds <= 0 || o.sets < 1 {
		return fmt.Errorf("-seconds and -sets must be positive")
	}
	selected := workloads
	if o.workload != "" {
		w, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		selected = []workload{w}
	}
	smoke := o.scale == "smoke"

	// The driver's form: one workload, one run, one line.
	if o.workload != "" && o.trace != "" {
		r, spans, err := runWorkload(selected[0], o.seed, o.seconds, smoke, o.trace == "1")
		if err != nil {
			return err
		}
		printTable(os.Stderr, o.workload, r)
		if o.traceOut != "" {
			if err := writeSpans(o.traceOut, spans); err != nil {
				return err
			}
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	}

	doc := document{Header: header{Go: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit: commit(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds}}
	var spans []span
	for set := 0; set < o.sets; set++ {
		reports := map[string]workloadReport{}
		for _, w := range selected {
			rep := workloadReport{Samples: map[string]int{}}
			// Layers are attributed once, not once per set.
			for _, traced := range []bool{false, true} {
				if traced && (o.trace == "0" || set > 0) || !traced && o.trace == "1" {
					continue
				}
				r, s, err := runWorkload(w, o.seed, o.seconds, smoke, traced)
				if err != nil {
					return err
				}
				for k, v := range r.Samples {
					rep.Samples[k] = v
				}
				if !traced {
					printTable(os.Stderr, w.name, r)
					rep.EndToEnd = r
					continue
				}
				printTable(os.Stderr, w.name+" (traced)", r)
				rep.PerLayer = r
				if o.traceOut != "" {
					// Kept spans are live heap: with -trace-out the later
					// workloads of a multi-workload run read a larger
					// peak_heap_mb than they would alone.
					spans = append(spans, s...)
				}
			}
			reports[w.name] = rep
		}
		doc.Sets = append(doc.Sets, reports)
	}
	if o.traceOut != "" {
		if err := writeSpans(o.traceOut, spans); err != nil {
			return err
		}
	}
	enc, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if o.out != "" {
		if err := os.WriteFile(o.out, append(enc, '\n'), 0o644); err != nil {
			return err
		}
	}
	fmt.Println(string(enc))
	if o.sets > 1 {
		return reportSets(os.Stderr, doc, o.check)
	}
	for name, rep := range doc.Sets[0] {
		for _, r := range []*result{rep.EndToEnd, rep.PerLayer} {
			if r != nil && !r.Correct {
				return fmt.Errorf("%s: %d of %d checks failed", name, r.Failed, r.Attempted)
			}
		}
	}
	return nil
}

// printTable is the human-readable form of one result.
func printTable(w io.Writer, title string, r *result) {
	fmt.Fprintf(w, "== %s: %d attempted, %d failed\n", title, r.Attempted, r.Failed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, k := range sortedKeys(r.Metrics) {
		m := r.Metrics[k]
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\tn=%d\n", k, m.Value, m.Unit, r.Samples[k])
	}
	tw.Flush()
}
