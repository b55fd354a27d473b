package engine

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"ndlog/internal/programs"
	"ndlog/internal/val"
)

// encodeFixpoint serializes a sorted tuple set to bytes, so equivalence
// tests can assert byte-identical fixpoints across parallelism levels.
func encodeFixpoint(ts []val.Tuple) []byte {
	var buf []byte
	for _, t := range ts {
		buf = val.AppendTuple(buf, t)
	}
	return buf
}

// figure2Parallel builds the Section 2.2 network on the in-process
// parallel executor.
func figure2Parallel(t *testing.T, opts Options) *Parallel {
	t.Helper()
	prog := mustParse(t, programs.ShortestPath(""))
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	p, err := NewParallel(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c", "d", "e"} {
		p.AddNode(id)
	}
	return p
}

func TestParallelShortestPathFigure2(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		for _, aggsel := range []bool{false, true} {
			p := figure2Parallel(t, Options{AggSel: aggsel, Parallelism: par})
			if err := p.Run(); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("parallelism=%d aggsel=%v", par, aggsel)
			checkCosts(t, spCosts(p.QueryResults()), floyd(figure2), label)
			if p.Undeliverable() != 0 {
				t.Errorf("%s: %d undeliverable deltas", label, p.Undeliverable())
			}
			// Results live at their location specifiers: per-node
			// ownership survived the concurrent run.
			for _, id := range p.Nodes() {
				for _, tp := range p.Node(id).Tuples("shortestPath") {
					if tp.Loc() != id {
						t.Errorf("%s: tuple %v stored at %s", label, tp, id)
					}
				}
			}
		}
	}
}

// TestParallelEquivalenceRandomized is the parallel-vs-sequential
// equivalence test: the same randomized program and seed must reach a
// byte-identical fixpoint at Parallelism 1, 2, and 8, and match the
// centralized reference evaluator. No node may store a carved row
// (DESIGN.md §3), though workers hand carved retractions to each other.
func TestParallelEquivalenceRandomized(t *testing.T) {
	// Sparse on purpose: path-vector programs enumerate simple paths,
	// which explodes on dense random graphs.
	const (
		nNodes = 10
		nEdges = 15
		trials = 3
	)
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		ids := make([]string, nNodes)
		for i := range ids {
			ids[i] = fmt.Sprintf("n%02d", i)
		}
		type link struct {
			a, b string
			cost float64
		}
		seen := map[[2]string]bool{}
		var links []link
		for len(links) < nEdges {
			a, b := ids[rng.Intn(nNodes)], ids[rng.Intn(nNodes)]
			if a == b || seen[[2]string{a, b}] {
				continue
			}
			seen[[2]string{a, b}] = true
			links = append(links, link{a: a, b: b, cost: float64(1 + rng.Intn(9))})
		}
		build := func() []val.Tuple {
			var facts []val.Tuple
			for _, l := range links {
				facts = append(facts,
					programs.LinkFact("link", l.a, l.b, l.cost),
					programs.LinkFact("link", l.b, l.a, l.cost))
			}
			return facts
		}

		// Centralized reference.
		progC := mustParse(t, programs.ShortestPath(""))
		progC.Facts = append(progC.Facts, build()...)
		c, err := NewCentral(progC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.LoadFacts()
		want := encodeFixpoint(c.QueryResults())

		for _, par := range []int{1, 2, 8} {
			prog := mustParse(t, programs.ShortestPath(""))
			prog.Facts = append(prog.Facts, build()...)
			p, err := NewParallel(prog, Options{Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for _, id := range ids {
				p.AddNode(id)
			}
			log := val.TrackChunks()
			err = p.Run()
			log.Stop()
			if err != nil {
				t.Fatal(err)
			}
			if log.Len() == 0 {
				t.Fatalf("trial %d: parallelism=%d carved no retraction: the carving check is vacuous", trial, par)
			}
			for _, id := range ids {
				for _, name := range p.Node(id).Catalog().Names() {
					for _, tp := range p.Node(id).Tuples(name) {
						if log.Holds(tp) {
							t.Fatalf("trial %d: parallelism=%d: node %s stores %v in a carved chunk", trial, par, id, tp)
						}
					}
				}
			}
			got := encodeFixpoint(p.QueryResults())
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d: parallelism=%d fixpoint differs from central (%d vs %d bytes)",
					trial, par, len(got), len(want))
			}
		}
	}
}

// TestParallelInject covers pre-run seeding beyond program facts and
// the unknown-destination accounting.
func TestParallelInject(t *testing.T) {
	prog := mustParse(t, tcSrc)
	p, err := NewParallel(prog, Options{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"x", "y"} {
		p.AddNode(id)
	}
	if err := p.Inject("x", Insert(edge("x", "y"))); err != nil {
		t.Fatal(err)
	}
	// y -> ghost: the derived reach(ghost, ...) localizer copy has no
	// node to land on and must be counted, not lost silently.
	if err := p.Inject("y", Insert(edge("y", "ghost"))); err != nil {
		t.Fatal(err)
	}
	if err := p.Inject("ghost", Insert(edge("g", "h"))); err == nil {
		t.Fatal("inject into unknown node must error")
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if err := p.Run(); err == nil {
		t.Fatal("second Run must error (one-shot)")
	}
	want := []val.Tuple{reach("x", "ghost"), reach("x", "y"), reach("y", "ghost")}
	got := p.Tuples("reach")
	if len(got) != len(want) {
		t.Fatalf("reach = %v, want %v", got, want)
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("reach = %v, want %v", got, want)
		}
	}
}
