// Command ndcheck is the NDlog static analyzer front end. It parses
// each program, runs every analysis pass (Definition 6 validity,
// arity/type inference, safety, lifetime dataflow, reachability, and
// lints — see DESIGN.md §9 for the catalogue), and prints all findings
// as "file:line:col: severity: message [check-id]" diagnostics. It can
// also report the rewrites the planner would perform — the localized
// rule set (Algorithm 2) and, under -v, each detected aggregate
// selection (Section 5.1.1) with the planner's verdict: "pruned", or
// "not pruned: rule <label> …" naming the rule that defeats the proof.
//
// Usage:
//
//	ndcheck program.ndl...
//	ndcheck -json program.ndl
//	ndcheck -Werror -localize program.ndl
//
// Exit status is 0 when no errors were found (warnings alone do not
// fail the build), 1 when any file has an error (or fails to parse),
// and 2 on usage errors. -Werror promotes warnings to errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"ndlog/internal/analysis"
	"ndlog/internal/parser"
	"ndlog/internal/planner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag is the stable -json wire shape of one diagnostic.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Severity string `json:"severity"`
	Check    string `json:"check"`
	Rule     string `json:"rule,omitempty"`
	Message  string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndcheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	localize := fs.Bool("localize", false, "print the localized program")
	verbose := fs.Bool("v", false, "print analysis details")
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	werror := fs.Bool("Werror", false, "treat warnings as errors")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ndcheck [flags] program.ndl...")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}

	var all []jsonDiag
	failed := false
	for _, file := range fs.Args() {
		diags, ok := checkFile(file, *localize, *verbose, *asJSON, *werror, stdout, stderr)
		all = append(all, diags...)
		if !ok {
			failed = true
		}
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if all == nil {
			all = []jsonDiag{}
		}
		if err := enc.Encode(all); err != nil {
			fmt.Fprintln(stderr, "ndcheck:", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}

// checkFile analyzes one file. It returns the diagnostics in JSON shape
// (for -json aggregation) and whether the file is error-free.
func checkFile(file string, localize, verbose, asJSON, werror bool, stdout, stderr io.Writer) ([]jsonDiag, bool) {
	src, err := os.ReadFile(file)
	if err != nil {
		return reportFatal(file, "read", err, asJSON, stderr), false
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		return reportFatal(file, "parse", err, asJSON, stderr), false
	}

	diags := analysis.Analyze(prog)
	if werror {
		for i := range diags {
			diags[i].Severity = analysis.Error
		}
	}
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File: file, Line: d.Pos.Line, Col: d.Pos.Col,
			Severity: d.Severity.String(), Check: d.Check, Rule: d.Rule, Message: d.Msg,
		})
		if !asJSON {
			fmt.Fprintln(stdout, d.Format(file))
		}
	}
	if analysis.HasErrors(diags) {
		return out, false
	}

	if !asJSON && len(diags) == 0 {
		fmt.Fprintf(stdout, "%s: OK (%d rules, %d facts, %d materialized tables)\n",
			file, len(prog.Rules), len(prog.Facts), len(prog.Materialized))
	}
	if verbose && !asJSON {
		links := planner.LinkRelations(prog)
		fmt.Fprintf(stdout, "link relations: %v\n", keys(links))
		idb := planner.IDBPredicates(prog)
		fmt.Fprintf(stdout, "derived predicates: %v\n", keys(idb))
		local, nonLocal := 0, 0
		for _, r := range prog.Rules {
			if r.IsLocal() {
				local++
			} else {
				nonLocal++
			}
		}
		fmt.Fprintf(stdout, "rules: %d local, %d link-restricted non-local\n", local, nonLocal)
		for _, sel := range planner.DetectAggSelections(prog) {
			note := "pruned"
			if !sel.Prunable() {
				note = "not pruned: " + sel.NotPruned
			}
			fmt.Fprintf(stdout, "aggregate selection: %s over %s (%s, group %v, value col %d) — %s\n",
				sel.AggPred, sel.SrcPred, sel.Func, sel.GroupCols, sel.ValueCol, note)
		}
	}
	if localize && !asJSON {
		lp, err := planner.Localize(prog)
		if err != nil {
			fmt.Fprintln(stderr, "ndcheck: localize:", err)
			return out, false
		}
		fmt.Fprintln(stdout, "\n// localized program (Algorithm 2):")
		fmt.Fprint(stdout, lp.String())
	}
	return out, true
}

// reportFatal renders a read or parse failure, which has no source
// position of its own, as a file-level error diagnostic.
func reportFatal(file, stage string, err error, asJSON bool, stderr io.Writer) []jsonDiag {
	if !asJSON {
		fmt.Fprintf(stderr, "%s: error: %s: %v [%s]\n", file, stage, err, stage)
	}
	return []jsonDiag{{File: file, Severity: "error", Check: stage, Message: err.Error()}}
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
