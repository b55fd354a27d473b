package govet

import (
	"path/filepath"
	"strings"
)

// UnsafeHome is the one file allowed to import "unsafe": the compact
// val.Value layout (DESIGN.md §12) rebuilds strings and slices from a
// pointer word there, behind accessors, and nowhere else.
const UnsafeHome = "internal/val/val.go"

// UnsafeImport keeps package unsafe fenced into UnsafeHome. The
// soundness argument for the three-word Value is local — every pointer
// word is taken from a live Go string or slice by two constructors in
// that file — and stays checkable only while no other file can forge
// or reinterpret one. Test files are not loaded, so size-pinning tests
// may use unsafe.Sizeof.
var UnsafeImport = &Analyzer{
	Name: "unsafeimport",
	Doc:  `flag import "unsafe" anywhere but ` + UnsafeHome,
	Run:  runUnsafeImport,
}

func runUnsafeImport(p *Pass) {
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				if imp.Path.Value != `"unsafe"` {
					continue
				}
				name := filepath.ToSlash(p.Fset.Position(imp.Pos()).Filename)
				if name == UnsafeHome || strings.HasSuffix(name, "/"+UnsafeHome) {
					continue
				}
				p.Reportf(imp.Pos(), `import "unsafe" outside %s: go through package val's accessors`, UnsafeHome)
			}
		}
	}
}
