package analysis

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ndlog/internal/parser"
)

// corpusDir holds one .ndl per diagnostic class with a golden .want
// file of the expected "file:line:col: severity: message [check-id]"
// output, sorted the way Analyze returns it.
const corpusDir = "../../testdata/analysis"

func TestGoldenCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.ndl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus files: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".ndl")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := parser.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			label := "testdata/analysis/" + filepath.Base(file)
			var got strings.Builder
			for _, d := range Analyze(prog) {
				got.WriteString(d.Format(label))
				got.WriteByte('\n')
			}
			wantBytes, err := os.ReadFile(strings.TrimSuffix(file, ".ndl") + ".want")
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if got.String() != string(wantBytes) {
				t.Errorf("diagnostics mismatch\n--- got ---\n%s--- want ---\n%s", got.String(), wantBytes)
			}
		})
	}
}

// TestCorpusCoversEveryCheck pins the corpus to the check catalogue:
// every check identifier must be exercised by at least one golden file.
func TestCorpusCoversEveryCheck(t *testing.T) {
	all := []string{
		CheckLocSpec, CheckAddrType, CheckLinkHead, CheckLinkRestrict,
		CheckUnbound, CheckRebind, CheckAggMulti, CheckArity, CheckType,
		CheckBuiltin, CheckSafety, CheckLifetime, CheckAggArg,
		CheckDeadRule, CheckUnreachable, CheckUnusedVar, CheckSingleton,
		CheckEvent, CheckCountCycle, CheckKey,
	}
	seen := map[string]bool{}
	files, _ := filepath.Glob(filepath.Join(corpusDir, "*.ndl"))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: parse: %v", file, err)
		}
		for _, d := range Analyze(prog) {
			seen[d.Check] = true
		}
	}
	var missing []string
	for _, id := range all {
		if !seen[id] {
			missing = append(missing, id)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("corpus does not exercise checks: %v", missing)
	}
}
