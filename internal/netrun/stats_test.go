package netrun

import (
	"sync"
	"testing"
	"time"

	"ndlog/internal/ast"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
)

// mustProg parses the shortest-path program with the Figure 2 links as
// base facts.
func mustProg(t *testing.T) *ast.Program {
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
	return prog
}

// TestStatsHammer hammers the runner's observable counters — Stats,
// Activity, Bytes, Messages, LocalIDs, Tuples — from many goroutines
// while seeds, injections, and a migration-style rederivation
// sweep generate traffic. Run under -race this proves the counters and
// the credit are safe to read at any moment, which is what the shard
// control plane does from its own goroutines; once the runner is
// quiescent every frame it sent has been acked.
func TestStatsHammer(t *testing.T) {
	prog := mustProg(t)
	r, err := New(prog, []string{"a", "b", "c", "d", "e"},
		engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.Stats()
				if s.SentMessages < 0 || s.RecvMessages < 0 || s.Outstanding < 0 {
					t.Errorf("negative counter snapshot: %+v", s)
					return
				}
				_ = r.Activity()
				_ = r.Bytes()
				_ = r.Messages()
				_ = r.LocalIDs()
				_ = r.Tuples("shortestPath")
			}
		}()
	}
	// Writers: re-seed, inject link updates, and sweep
	// rederivations while the readers spin.
	for i := 0; i < 3; i++ {
		r.Seed()
		r.Inject("a", engine.Insert(programs.LinkFact("link", "a", "b", float64(2+i))))
		r.RederiveFor([]string{"d"})
	}
	if !r.WaitQuiescent(200*time.Millisecond, 10*time.Second) {
		t.Fatal("runner did not go idle")
	}
	close(stop)
	wg.Wait()

	s := r.Stats()
	if s.SentMessages == 0 || s.RecvMessages == 0 {
		t.Errorf("expected traffic, got %+v", s)
	}
	if s.Outstanding != 0 {
		t.Errorf("quiescent runner still owes %d acks or drains: %+v", s.Outstanding, s)
	}
}
