package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ndlog/internal/programs"
)

const (
	cleanFile    = "../../testdata/shortestpath.ndl"
	errorFile    = "../../testdata/analysis/multi.ndl"
	warnOnlyFile = "../../testdata/analysis/singleton.ndl"
)

func runCheck(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

func TestExitCodeClean(t *testing.T) {
	code, out, _ := runCheck(t, cleanFile)
	if code != 0 {
		t.Fatalf("clean file: exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "OK") {
		t.Errorf("clean file should print OK summary, got:\n%s", out)
	}
}

func TestExitCodeErrors(t *testing.T) {
	code, out, _ := runCheck(t, errorFile)
	if code != 1 {
		t.Fatalf("file with errors: exit %d, want 1", code)
	}
	for _, want := range []string{"error:", "[lifetime]", "[safety]", "[arity]", "[agg-arg]"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Every diagnostic must carry a real file:line:col prefix.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if !strings.HasPrefix(line, errorFile+":") {
			t.Errorf("diagnostic without file prefix: %q", line)
		}
	}
}

func TestExitCodeWarningsOnly(t *testing.T) {
	code, out, _ := runCheck(t, warnOnlyFile)
	if code != 0 {
		t.Fatalf("warnings-only file: exit %d, want 0; output:\n%s", code, out)
	}
	if !strings.Contains(out, "warning:") {
		t.Errorf("warnings should still be printed:\n%s", out)
	}
}

func TestWerrorPromotesWarnings(t *testing.T) {
	code, out, _ := runCheck(t, "-Werror", warnOnlyFile)
	if code != 1 {
		t.Fatalf("-Werror on warnings-only file: exit %d, want 1", code)
	}
	if strings.Contains(out, "warning:") || !strings.Contains(out, "error:") {
		t.Errorf("-Werror should render promoted diagnostics as errors:\n%s", out)
	}
}

func TestJSONOutput(t *testing.T) {
	code, out, _ := runCheck(t, "-json", errorFile)
	if code != 1 {
		t.Fatalf("-json exit %d, want 1", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(diags) < 3 {
		t.Fatalf("want >=3 diagnostics, got %d", len(diags))
	}
	for _, d := range diags {
		if d.File != errorFile || d.Line <= 0 || d.Col <= 0 || d.Check == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestJSONCleanIsEmptyArray(t *testing.T) {
	code, out, _ := runCheck(t, "-json", cleanFile)
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output should be [], got %q", out)
	}
}

func TestMultipleFilesAggregated(t *testing.T) {
	code, out, _ := runCheck(t, "-json", cleanFile, errorFile)
	if code != 1 {
		t.Fatalf("one bad file should fail the whole run: exit %d", code)
	}
	var diags []jsonDiag
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	for _, d := range diags {
		if d.File == cleanFile {
			t.Errorf("clean file should contribute no diagnostics: %+v", d)
		}
	}
}

func TestParseFailureIsError(t *testing.T) {
	code, _, stderr := runCheck(t, "main_test.go") // not an .ndl program
	if code != 1 {
		t.Fatalf("unparseable file: exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "error") {
		t.Errorf("parse failure should be reported on stderr: %q", stderr)
	}
}

func TestUsageError(t *testing.T) {
	if code, _, _ := runCheck(t); code != 2 {
		t.Errorf("no arguments: exit %d, want 2", code)
	}
}

// TestVerbosePrintsSelectionVerdicts: -v prints the planner's verdict on
// each aggregate selection, naming the rule that defeats a failed proof.
func TestVerbosePrintsSelectionVerdicts(t *testing.T) {
	file := filepath.Join(t.TempDir(), "csr.ndl")
	if err := os.WriteFile(file, []byte(programs.CachedSourceRoute()), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := runCheck(t, "-v", file)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{
		"localBest over pathDst (min, group [0 1 2], value col 4) — pruned",
		"cache over answer (min, group [0 2], value col 5) — not pruned: rule an2 carries non-group S, P, C into its head",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestVerbosePrintsKeys: -v lists every predicate's key of the program
// the engine runs, as declared, inferred from the rules, or the default
// whole row.
func TestVerbosePrintsKeys(t *testing.T) {
	code, out, _ := runCheck(t, "-v", cleanFile)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	for _, want := range []string{
		"key: path pk(0,1,3) (declared)",
		"key: path_d1 pk(0,1) (inferred)",
		"key: shortestPath pk(0,1,2) (inferred)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
