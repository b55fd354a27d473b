package netrun

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
)

func buildConfigured(t *testing.T, cfg Config, opts engine.Options) *Runner {
	t.Helper()
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	local := map[string]string{}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		local[id] = ""
	}
	r, err := NewConfigured(prog, local, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSharedSocketShortestPath runs the Figure 2 fixpoint over the
// shared-socket receive path: a fixed socket set drained by the demux
// pool must reach the same answers the per-node loops do.
func TestSharedSocketShortestPath(t *testing.T) {
	r := buildConfigured(t, Config{SharedSockets: true}, engine.Options{AggSel: true})
	defer r.Close()
	r.Start()
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("cluster did not go idle")
	}
	want := map[string]bool{
		"shortestPath(a,b,[a,c,b],2)":     true,
		"shortestPath(a,c,[a,c],1)":       true,
		"shortestPath(e,d,[e,a,c,b,d],4)": true,
	}
	check := func() int {
		missing := 0
		got := map[string]bool{}
		for _, k := range r.Tuples("shortestPath") {
			got[k] = true
		}
		for k := range want {
			if !got[k] {
				missing++
			}
		}
		return missing
	}
	missing := check()
	for attempt := 0; missing > 0 && attempt < 3; attempt++ {
		r.Seed() // datagram loss: refresh and re-check
		r.WaitQuiescent(300*time.Millisecond, 10*time.Second)
		missing = check()
	}
	if missing > 0 {
		t.Fatalf("missing %d known answers; have %v", missing, r.Tuples("shortestPath"))
	}
	if r.Messages() == 0 {
		t.Error("no UDP traffic recorded")
	}
}

// TestSharedSocketGoroutineBound hosts 100 nodes on one shared-socket
// runner and asserts the receive path runs O(pool) goroutines, not
// O(nodes) — the scaling property the mode exists for.
func TestSharedSocketGoroutineBound(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	local := map[string]string{}
	for i := 0; i < 100; i++ {
		local[fmt.Sprintf("n%03d", i)] = ""
	}
	before := runtime.NumGoroutine()
	r, err := NewConfigured(prog, local, Config{SharedSockets: true},
		engine.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	r.WaitQuiescent(200*time.Millisecond, 5*time.Second)
	// Let transient seed-pool workers exit before counting.
	time.Sleep(100 * time.Millisecond)
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 12 {
		t.Errorf("100-node shared-socket runner grew goroutines by %d; want O(pool)", grew)
	}
}

// TestGroupCommitFsyncPerDrain asserts the headline durability
// collapse: a drain sweeping every local node costs exactly ONE fsync
// under group commit, versus one per touched node with private stores.
func TestGroupCommitFsyncPerDrain(t *testing.T) {
	for _, tc := range []struct {
		name  string
		group bool
		want  uint64 // fsyncs one full-shard drain may cost
	}{
		{"group", true, 1},
		{"per-node", false, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := buildConfigured(t, Config{GroupCommit: tc.group}, engine.Options{})
			defer r.Close()
			if _, err := r.EnableDurability(t.TempDir(), durable.Options{Sync: durable.SyncCommit}); err != nil {
				t.Fatal(err)
			}
			// Seed without Start: one deterministic drain across all five
			// nodes (every Figure 2 node owns link facts), no receive
			// traffic to blur the count.
			base := r.DurableSyncs()
			r.Seed()
			if got := r.DurableSyncs() - base; got != tc.want {
				t.Errorf("full-shard drain cost %d fsyncs, want %d", got, tc.want)
			}
			if tc.group {
				base = r.DurableCommits()
				r.Seed()
				if got := r.DurableCommits() - base; got != 1 {
					t.Errorf("full-shard drain cost %d group commits, want 1", got)
				}
			}
		})
	}
}
