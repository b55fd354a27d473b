package main

import (
	"fmt"
	"io"
	"time"

	"ndlog/internal/conform"
	"ndlog/internal/engine"
)

// runProtocols prints one measurement row per protocol of the
// conformance suite: virtual seconds to the oracle-clean fixpoint
// (and to re-convergence after one churn event where that applies),
// plus message/byte counts and wall-clock cost. Rows are deterministic
// under -seed; -small shrinks the topologies the way the figure
// experiments do.
//
// aggsel adds optimizer-measurement variants: the same runs under
// aggregate selections, which prune the predicates the planner proves
// safe (DESIGN.md §11 "Which selections prune": Chord's finger,
// link-state's lpath, the query program's pathDst) — identical oracle
// checks, so a row that prints is a row that stayed correct, and the
// message delta against the baseline row is the measured bandwidth
// effect. On Chord the proof leaves aggsel no useful handle: succ feeds
// f0, and finger's only reader is the cand aggregate, which sees every
// tuple anyway. The link-state SPF never crosses a link, so its saving
// shows in the derivation count. magic adds query-driven shortest-path
// rows (the Section 5.1.2 magic rewrite) on the link-state topology —
// the on-demand counterpart to the flooded all-pairs row, with the
// pruned combination when both flags are set.
func runProtocols(w io.Writer, seed int64, small, aggsel, magic bool) error {
	fmt.Fprintf(w, "Protocol conformance rows (seed %d)\n", seed)

	if err := chordRow(w, seed, small, "chord", engine.Options{}); err != nil {
		return err
	}
	if err := linkStateRow(w, seed, small, "linkstate", engine.Options{}); err != nil {
		return err
	}
	if err := gossipRow(w, seed, small); err != nil {
		return err
	}
	if aggsel {
		if err := chordRow(w, seed, small, "chord+aggsel", engine.Options{AggSel: true}); err != nil {
			return err
		}
		if err := linkStateRow(w, seed, small, "linkstate+aggsel", engine.Options{AggSel: true}); err != nil {
			return err
		}
	}
	if magic {
		if err := magicRow(w, seed, small, "magic", engine.Options{}); err != nil {
			return err
		}
		if aggsel {
			if err := magicRow(w, seed, small, "magic+aggsel", engine.Options{AggSel: true}); err != nil {
				return err
			}
		}
	}
	return nil
}

// countDerivs layers a rule-firing counter over the row's engine
// options — the metric that exposes aggregate-selection savings for
// protocols whose pruned rules are node-local.
func countDerivs(eng engine.Options) (engine.Options, *int64) {
	derivs := new(int64)
	prev := eng.OnDerive
	eng.OnDerive = func(nodeID, rule string, d engine.Delta) {
		if prev != nil {
			prev(nodeID, rule, d)
		}
		*derivs++
	}
	return eng, derivs
}

// settle advances time in 1-vsec steps until check is clean, returning
// the virtual time reached, or an error at the deadline.
func settle(run func(float64), now func() float64, deadline float64, check func() []string) (float64, error) {
	for {
		errs := check()
		if len(errs) == 0 {
			return now(), nil
		}
		if now() >= deadline {
			return 0, fmt.Errorf("not converged by t=%.1f: %s (+%d more)",
				now(), errs[0], len(errs)-1)
		}
		run(now() + 1)
	}
}

func chordRow(w io.Writer, seed int64, small bool, label string, eng engine.Options) error {
	o := conform.DefaultChordOpts(seed)
	o.Nodes, o.Reserve = 32, 2
	eng, derivs := countDerivs(eng)
	o.Engine = eng
	deadline := 240.0
	if small {
		o.Nodes = 16
		deadline = 120
	}
	start := time.Now()
	r, err := conform.NewChordRun(o)
	if err != nil {
		return err
	}
	// Skip past the staggered bring-up joins before polling the ring
	// invariant; at t=0 the landmark alone is (vacuously) a valid ring.
	r.RunUntil(10)
	conv, err := settle(r.RunUntil, r.Net.Sim.Now, deadline, r.CheckRing)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	samples := r.InjectLookups(24)
	total, ok := len(samples), 0
	for attempt := 0; len(samples) > 0 && attempt < 5; attempt++ {
		r.RunUntil(r.Net.Sim.Now() + 2)
		failed, errs := r.CheckLookups(samples)
		if len(errs) > 0 {
			return fmt.Errorf("%s: wrong lookup: %s", label, errs[0])
		}
		ok = total - len(failed)
		samples = samples[:0]
		for _, s := range failed {
			samples = append(samples, r.Reinject(s))
		}
	}
	fmt.Fprintf(w, "%-17s nodes=%-3d ring-stable=%.1f vsec  lookups=%d/%d ok  msgs=%d bytes=%d derivs=%d  wall=%.2fs\n",
		label, o.Nodes, conv, ok, total, r.Net.Sim.Messages(), r.Net.Sim.Bytes(), *derivs, time.Since(start).Seconds())
	return nil
}

func linkStateRow(w io.Writer, seed int64, small bool, label string, eng engine.Options) error {
	o := conform.DefaultLinkStateOpts(seed)
	eng, derivs := countDerivs(eng)
	o.Engine = eng
	if small {
		o.Nodes, o.Chords = 10, 4
	}
	start := time.Now()
	r, err := conform.NewLinkStateRun(o)
	if err != nil {
		return err
	}
	conv, err := settle(r.RunUntil, r.Net.Sim.Now, 30, r.CheckRoutes)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	a, b := r.RandomEdge()
	r.SetCost(a, b, 1+r.Net.Rng.Int63n(o.MaxCost))
	reconv, err := settle(r.RunUntil, r.Net.Sim.Now, conv+30, r.CheckRoutes)
	if err != nil {
		return fmt.Errorf("%s churn: %w", label, err)
	}
	fmt.Fprintf(w, "%-17s nodes=%-3d routes=%.1f vsec  recost-reconverge=%.1f vsec  msgs=%d bytes=%d derivs=%d  wall=%.2fs\n",
		label, o.Nodes, conv, reconv-conv, r.Net.Sim.Messages(), r.Net.Sim.Bytes(), *derivs, time.Since(start).Seconds())
	return nil
}

// magicRow runs query-driven shortest paths: the same ring-plus-chords
// graph as the link-state row, but nothing computes until a (src, dst)
// query is asked, and each query's answer — checked against Dijkstra —
// returns to the source along the discovered path, caching suffix
// costs on the way.
func magicRow(w io.Writer, seed int64, small bool, label string, eng engine.Options) error {
	o := conform.DefaultMagicOpts(seed)
	eng, derivs := countDerivs(eng)
	o.Engine = eng
	queries := 6
	if small {
		o.Nodes, o.Chords = 10, 4
		queries = 3
	}
	start := time.Now()
	r, err := conform.NewMagicRun(o)
	if err != nil {
		return err
	}
	// Let the link facts settle (no derivations run yet — the magic
	// program is inert until seeded).
	r.RunUntil(1)
	answered := 0.0
	for q := 0; q < queries; q++ {
		src := r.Names[r.Net.Rng.Intn(len(r.Names))]
		dst := r.Names[r.Net.Rng.Intn(len(r.Names))]
		if src == dst {
			dst = r.Names[(r.Net.Rng.Intn(len(r.Names)-1)+1+q)%len(r.Names)]
			if src == dst {
				dst = r.Names[(len(r.Names)/2+q)%len(r.Names)]
			}
		}
		asked := r.Net.Sim.Now()
		r.Ask(src, dst)
		_, err := settle(r.RunUntil, r.Net.Sim.Now, asked+30,
			func() []string { return r.CheckAnswer(src, dst) })
		if err != nil {
			return fmt.Errorf("%s query %s->%s: %w", label, src, dst, err)
		}
		answered = r.Net.Sim.Now()
	}
	fmt.Fprintf(w, "%-17s nodes=%-3d queries=%d answered=%.1f vsec  msgs=%d bytes=%d derivs=%d  wall=%.2fs\n",
		label, o.Nodes, queries, answered, r.Net.Sim.Messages(), r.Net.Sim.Bytes(), *derivs, time.Since(start).Seconds())
	return nil
}

func gossipRow(w io.Writer, seed int64, small bool) error {
	o := conform.DefaultGossipOpts(seed)
	if small {
		o.Nodes = 16
	}
	start := time.Now()
	r, err := conform.NewGossipRun(o)
	if err != nil {
		return err
	}
	bound := r.ConvergeRounds()
	r.RunRounds(bound)
	extra := 0
	for len(r.CheckFresh(nil)) > 0 {
		if extra++; extra > 5 {
			return fmt.Errorf("gossip: view not fresh %d rounds past the infection bound", extra)
		}
		r.RunRounds(1)
	}
	fmt.Fprintf(w, "%-17s nodes=%-3d fresh=%d rounds (bound %d)  detect-after=%d rounds  wall=%.2fs\n",
		"gossip", o.Nodes, bound+extra, bound, r.DetectRounds(), time.Since(start).Seconds())
	return nil
}
