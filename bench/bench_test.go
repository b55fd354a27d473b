package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON pins BENCHMARK.json to the tables this package
// measures and gates by: same workloads, same metrics, units, directions
// and bounds, in the same order.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bm.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bm.Workloads[i].Name != w.name || bm.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, bm.Workloads[i].Name, bm.Workloads[i].Why, w.name, w.why)
		}
	}
	if !reflect.DeepEqual(bm.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bm.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bm.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bm.PerLayer, perLayer)
	}
	if !reflect.DeepEqual(bm.Paths, []string{"bench"}) || !reflect.DeepEqual(bm.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command %v paths %v", bm.Command, bm.Paths)
	}
}

// smoke runs one workload at smoke scale and checks the result's shape:
// no failed check, exactly the metrics of its table, and every
// end-to-end metric measured.
func smoke(t *testing.T, w workload, traced bool) *result {
	t.Helper()
	// A budget this small is spent by the first repetition, so every
	// run does exactly one and same-seed runs see the same inputs.
	r, _, err := runWorkload(w, 1, 1e-9, true, traced)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", w.name, traced, err)
	}
	if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
		t.Errorf("%s traced=%v: %d of %d checks failed", w.name, traced, r.Failed, r.Attempted)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s traced=%v: metric %s missing", w.name, traced, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s %s: unit %q, want %q", w.name, d.Name, m.Unit, d.Unit)
		case !traced && m.Value <= 0:
			t.Errorf("%s %s: end-to-end value %v", w.name, d.Name, m.Value)
		}
	}
	return r
}

// TestSmoke runs every workload, untraced and traced, on the 14-node
// overlay with at most ten ops.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		smoke(t, w, false)
		r := smoke(t, w, true)
		if r.Metrics["failed_share"].Value != 0 {
			t.Errorf("%s: failed_share %v", w.name, r.Metrics["failed_share"].Value)
		}
		if r.Metrics["result_rows"].Value == 0 {
			t.Errorf("%s: no result rows", w.name)
		}
	}
}

// TestSimCountsRepeat: the simulator workloads are single-threaded and
// seeded, so their counts and virtual times repeat exactly — which is
// what lets a later change rest a claim on them.
func TestSimCountsRepeat(t *testing.T) {
	w, _ := findWorkload("sp100-sim")
	a, b := smoke(t, w, true), smoke(t, w, true)
	for _, name := range []string{"wire_msgs_per_op", "wire_kb_per_op", "vconverge_s", "engine.derivations", "simnet.events"} {
		if a.Metrics[name] != b.Metrics[name] || a.Metrics[name].Value == 0 {
			t.Errorf("%s: %v then %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
}

// fakeDoc is a result document with one workload and chosen converge_s
// values, one per set.
func fakeDoc(failed int, converge ...float64) document {
	var doc document
	for _, v := range converge {
		r := &result{Correct: failed == 0, Attempted: 10, Failed: failed, Metrics: map[string]measure{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = measure{Value: 1, Unit: d.Unit}
		}
		r.Metrics["converge_s"] = measure{Value: v, Unit: "s"}
		doc.Sets = append(doc.Sets, map[string]workloadReport{"w": {EndToEnd: r}})
	}
	return doc
}

func TestDiffAndCheck(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, doc document) string {
		b, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var bound float64
	for _, d := range endToEnd {
		if d.Name == "converge_s" {
			bound = d.Bound
		}
	}
	inside, outside := 1+bound/2, 1+2*bound
	base := write("base.json", fakeDoc(0, 1.00, 1.02))
	if err := diffFiles(io.Discard, base, write("same.json", fakeDoc(0, inside, inside+0.02))); err != nil {
		t.Errorf("half the bound slower: %v", err)
	}
	if err := diffFiles(io.Discard, base, write("slow.json", fakeDoc(0, outside, outside+0.02))); err == nil {
		t.Error("twice the bound slower passed")
	}
	if err := diffFiles(io.Discard, base, write("wrong.json", fakeDoc(1, 1.00, 1.02))); err == nil {
		t.Error("a new failed check passed")
	}
	if err := reportSets(io.Discard, fakeDoc(0, 1.00, inside), true); err != nil {
		t.Errorf("sets half the bound apart: %v", err)
	}
	if err := reportSets(io.Discard, fakeDoc(0, 1.00, outside), true); err == nil {
		t.Error("sets twice the bound apart agreed")
	}
}
