// Package govet is a small static-analysis framework for the repo's
// own Go invariants, modeled on the golang.org/x/tools/go/analysis API
// (Analyzer / Pass / Diagnostic) but built only on the standard
// library's go/parser and go/ast: the build environment vendors no
// modules, so the x/tools driver is unavailable and the framework
// gates that dependency away rather than importing it.
//
// Analyses are purely syntactic (no type information), which keeps
// them fast and dependency-free; each analyzer documents the
// name-based heuristics it relies on. A finding can be suppressed by
// putting a "//ndvet:ok <reason>" comment on the flagged line or the
// line directly above it — suppressions are deliberate, grep-able
// markers, so the reason is required reading at the call site.
package govet

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding of an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Package is one parsed (non-test) Go package directory.
type Package struct {
	Name  string // package clause name
	Dir   string
	Files []*ast.File
}

// Analyzer is one named analysis over the full set of loaded packages.
// Run sees every package at once so call graphs can cross package
// boundaries.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All lists every analyzer of the repo, in the order cmd/ndvet and the
// repo-is-clean test run them.
var All = []*Analyzer{AtomicCounter, UnsafeImport}

// Pass carries the loaded program and the reporting sink for one
// analyzer invocation.
type Pass struct {
	Fset *token.FileSet
	Pkgs []*Package

	analyzer string
	diags    *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Load parses every non-test .go file in the given directories into
// Packages. Directories with no Go files are skipped silently, so
// callers can pass the result of pattern expansion directly.
func Load(fset *token.FileSet, dirs []string) ([]*Package, error) {
	var pkgs []*Package
	for _, dir := range dirs {
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		pkg := &Package{Dir: dir}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			pkg.Files = append(pkg.Files, f)
			pkg.Name = f.Name.Name
		}
		if len(pkg.Files) > 0 {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// ExpandPatterns turns command-line package patterns into directories:
// "dir/..." walks recursively (skipping testdata and hidden
// directories), anything else is taken literally.
func ExpandPatterns(patterns []string) ([]string, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		root, recursive := strings.CutSuffix(pat, "/...")
		if !recursive {
			add(pat)
			continue
		}
		err := filepath.WalkDir(filepath.Clean(root), func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			base := filepath.Base(path)
			if base == "testdata" || (strings.HasPrefix(base, ".") && path != root) {
				return filepath.SkipDir
			}
			add(path)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// Run executes every analyzer over the loaded packages and returns the
// surviving findings sorted by position. Findings on a line carrying
// (or directly below) a "//ndvet:ok" comment are suppressed.
func Run(fset *token.FileSet, pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		a.Run(&Pass{Fset: fset, Pkgs: pkgs, analyzer: a.Name, diags: &diags})
	}
	ok := suppressedLines(fset, pkgs)
	kept := diags[:0]
	for _, d := range diags {
		if ok[lineKey{d.Pos.Filename, d.Pos.Line}] {
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i].Pos, kept[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return kept
}

type lineKey struct {
	file string
	line int
}

// suppressedLines collects every line covered by a "//ndvet:ok"
// comment: the comment's own line and the line below it (so the marker
// can sit above a long statement).
func suppressedLines(fset *token.FileSet, pkgs []*Package) map[lineKey]bool {
	ok := map[lineKey]bool{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//ndvet:ok") {
						continue
					}
					pos := fset.Position(c.Pos())
					ok[lineKey{pos.Filename, pos.Line}] = true
					ok[lineKey{pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return ok
}
