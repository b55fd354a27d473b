// Command ndvet runs the repo's custom Go invariant lints (see
// internal/govet): atomic-counter discipline and the fence that keeps
// package unsafe inside internal/val/val.go. It is stdlib-only — the usual
// golang.org/x/tools analysis driver is not vendored in this build
// environment, so internal/govet provides the framework.
//
// Usage:
//
//	ndvet ./internal/...
//	ndvet internal/engine internal/netrun
//
// Exit status is 0 when no findings survive suppression, 1 otherwise,
// 2 on usage errors. Suppress an intentional finding with a
// "//ndvet:ok <reason>" comment on the flagged line or the line above.
package main

import (
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"

	"ndlog/internal/govet"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ndvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ndvet package-dir...   (dir/... walks recursively)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return 2
	}
	dirs, err := govet.ExpandPatterns(fs.Args())
	if err != nil {
		fmt.Fprintln(stderr, "ndvet:", err)
		return 2
	}
	fset := token.NewFileSet()
	pkgs, err := govet.Load(fset, dirs)
	if err != nil {
		fmt.Fprintln(stderr, "ndvet:", err)
		return 1
	}
	diags := govet.Run(fset, pkgs, govet.All)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
