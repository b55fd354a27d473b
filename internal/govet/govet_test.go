package govet

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// loadSrc builds a Package from in-memory fixture files.
func loadSrc(t *testing.T, fset *token.FileSet, pkgDir string, files map[string]string) *Package {
	t.Helper()
	pkg := &Package{Dir: pkgDir}
	for name, src := range files {
		f, err := parser.ParseFile(fset, pkgDir+"/"+name, src, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Name = f.Name.Name
	}
	return pkg
}

// TestAtomicCounterCatchesPlantedPlainCounter: a struct mixing atomic
// and plain counters is flagged at the declaration and at every plain
// write site.
func TestAtomicCounterCatchesPlantedPlainCounter(t *testing.T) {
	const fixture = `package stats

import "sync/atomic"

type collector struct {
	sent    atomic.Int64
	dropped int64 // deliberately planted plain counter
	name    string
	limit   int // not counter-named: must not be flagged
}

func (c *collector) note() {
	c.dropped++
	c.dropped += 2
	c.sent.Add(1)
}
`
	fset := token.NewFileSet()
	pkg := loadSrc(t, fset, "stats", map[string]string{"stats.go": fixture})
	diags := Run(fset, []*Package{pkg}, []*Analyzer{AtomicCounter})
	if len(diags) != 3 {
		t.Fatalf("want 3 findings (1 decl + 2 writes), got %d: %v", len(diags), diags)
	}
	wantLines := []int{7, 13, 14}
	for i, d := range diags {
		if d.Pos.Line != wantLines[i] {
			t.Errorf("finding %d at line %d, want %d: %s", i, d.Pos.Line, wantLines[i], d)
		}
		if !strings.Contains(d.Message, "dropped") {
			t.Errorf("finding should name the field: %s", d)
		}
	}
}

// TestAtomicCounterIgnoresPureStructs: with no atomic field the struct
// never opted into the discipline.
func TestAtomicCounterIgnoresPureStructs(t *testing.T) {
	const fixture = `package stats

type tally struct {
	count int
	total int64
}

func (t *tally) bump() { t.count++ }
`
	fset := token.NewFileSet()
	pkg := loadSrc(t, fset, "stats", map[string]string{"stats.go": fixture})
	if diags := Run(fset, []*Package{pkg}, []*Analyzer{AtomicCounter}); len(diags) != 0 {
		t.Errorf("plain struct should not be flagged: %v", diags)
	}
}

// TestAtomicCounterSuppression: //ndvet:ok silences a finding on its
// line or the line below.
func TestAtomicCounterSuppression(t *testing.T) {
	const fixture = `package stats

import "sync/atomic"

type collector struct {
	sent atomic.Int64
	//ndvet:ok snapshot copy, only read after workers stop
	dropped int64
}
`
	fset := token.NewFileSet()
	pkg := loadSrc(t, fset, "stats", map[string]string{"stats.go": fixture})
	if diags := Run(fset, []*Package{pkg}, []*Analyzer{AtomicCounter}); len(diags) != 0 {
		t.Errorf("suppressed finding should not be reported: %v", diags)
	}
}

// TestUnsafeImportFence: a planted import "unsafe" is flagged in any
// file but internal/val/val.go — including another file of package val
// and a renamed import — and the home file itself passes.
func TestUnsafeImportFence(t *testing.T) {
	const planted = `package val

import (
	"fmt"
	u "unsafe"
)

var _ = fmt.Sprint(u.Sizeof(0))
`
	fset := token.NewFileSet()
	valPkg := loadSrc(t, fset, "../../internal/val", map[string]string{
		"val.go":    "package val\n\nimport \"unsafe\"\n\nvar _ unsafe.Pointer\n",
		"encode.go": planted,
	})
	other := loadSrc(t, fset, "internal/table", map[string]string{
		"val.go": "package table\n\nimport \"unsafe\"\n\nvar _ unsafe.Pointer\n",
	})
	diags := Run(fset, []*Package{valPkg, other}, []*Analyzer{UnsafeImport})
	if len(diags) != 2 {
		t.Fatalf("want 2 findings (val/encode.go, table/val.go), got %d: %v", len(diags), diags)
	}
	if !strings.HasSuffix(diags[0].Pos.Filename, "internal/val/encode.go") || diags[0].Pos.Line != 5 {
		t.Errorf("first finding at %s:%d, want internal/val/encode.go:5", diags[0].Pos.Filename, diags[0].Pos.Line)
	}
	if !strings.HasSuffix(diags[1].Pos.Filename, "internal/table/val.go") {
		t.Errorf("second finding at %s, want internal/table/val.go", diags[1].Pos.Filename)
	}
}

// TestExpandPatterns: dir/... walks recursively and skips testdata.
func TestExpandPatterns(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"../../internal/..."})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, d := range dirs {
		want[d] = true
	}
	for _, need := range []string{"../../internal/govet", "../../internal/engine", "../../internal/analysis"} {
		if !want[strings.TrimPrefix(need, "")] {
			t.Errorf("pattern expansion missing %s (got %v)", need, dirs)
		}
	}
	for d := range want {
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata should be skipped: %s", d)
		}
	}
}

// TestRepoIsVetClean pins the invariant the CI job enforces: no
// package of the repository carries an unsuppressed finding.
func TestRepoIsVetClean(t *testing.T) {
	dirs, err := ExpandPatterns([]string{"../../..."})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := Load(fset, dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(fset, pkgs, All) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}
