package main

import (
	"time"

	"ndlog/internal/programs"
	"ndlog/internal/topology"
)

// addOps folds one repetition's per-op latencies into the op metrics.
func (c *ctx) addOps(lat []time.Duration, allocs uint64) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = millis(d)
	}
	c.add("op_p50_ms", median(ms))
	c.add("op_p90_ms", quantile(ms, 0.9))
	c.add("allocs_per_op", ratio(float64(allocs), float64(len(lat))))
}

// burstPlan draws a repetition's whole update sequence up front: bursts
// bursts, each moving the cost of share of the links (at least one).
// The overlay ends up at the final costs, which is what the oracle reads
// after the last burst.
//
// What an update costs depends mostly on which link it hits — per-burst
// cost on the 100-node overlay spans a factor of ten — and a run fits
// only a few dozen bursts, so links drawn freely from --seed moved the
// op metrics by a fifth from seed to seed. The plan is therefore
// stratified: the links to be hit are a fixed, evenly spaced subset of
// the overlay's, as many as the plan has updates (all of them, several
// times over, when it has more), and --seed decides only the order in
// which they are hit and by how much each cost moves.
func (c *ctx) burstPlan(n *network, bursts int, share float64) [][]linkUpdate {
	if c.smoke && bursts > 10 {
		bursts = 10
	}
	links := len(n.overlay.Links)
	perBurst := max(1, int(float64(links)*share))
	strata := min(bursts*perBurst, links)
	var order []int
	for len(order) < bursts*perBurst {
		for _, j := range c.updates.Perm(strata) {
			order = append(order, j*links/strata)
		}
	}
	plan := make([][]linkUpdate, bursts)
	for i := range plan {
		for _, idx := range order[i*perBurst : (i+1)*perBurst] {
			plan[i] = append(plan[i], n.perturb(c.updates, idx))
		}
	}
	return plan
}

// dvUpdatesSim is Fig 13/14: distance-vector routing on the Random
// metric to its fixpoint, then bursts that each perturb 1 % of the
// links, closed loop: a burst is injected once the previous one has run
// to quiescence.
func dvUpdatesSim(c *ctx) error {
	const (
		pool   = 2 // overlays per cycle; a cycle is about 8 s on 2 cores
		bursts = 25
	)
	return c.cycles(pool, func(i int) error {
		n := c.newNetwork(paperScale(), topology.Random, int64(i%pool)+1)
		src, facts := programs.ShortestPathDV(""), n.linkFacts()
		r, err := clusterRep(c, n, src, facts, 5)
		if err != nil {
			return err
		}
		c.add("converge_s", seconds(r.cold.converge))
		c.add("peak_heap_mb", r.cold.heapMB)
		plan := c.burstPlan(n, bursts, 0.01) // moves the overlay's costs: after the cold start

		msgs0, bytes0 := r.sim.Messages(), r.sim.Bytes()
		lat := make([]time.Duration, 0, len(plan))
		ac := newAllocCounter()
		a0 := ac.read()
		for _, burst := range plan {
			t0 := time.Now()
			for _, u := range burst {
				for _, in := range u.injects() {
					if err := r.cl.Inject(in.node, in.d); err != nil {
						return err
					}
				}
			}
			ok := r.sim.RunToQuiescence(n.cfg.MaxEvents)
			lat = append(lat, time.Since(t0))
			c.check(ok, "simnet: burst hit the event limit")
		}
		c.addOps(lat, ac.read()-a0)
		rows := c.checkPaths(n, r.cl.Tuples("shortestPath"))
		if !c.traced {
			return nil
		}
		c.add("result_rows", float64(rows))
		c.add("wire_msgs_per_op", ratio(float64(r.sim.Messages()-msgs0), float64(len(plan))))
		c.add("wire_kb_per_op", ratio(float64(r.sim.Bytes()-bytes0)/1e3, float64(len(plan))))

		t, prog, err := tracedColdStart(c, n, src, facts, r.cold.converge)
		if err != nil {
			return err
		}
		if err := tracedBursts(c, t, plan); err != nil {
			return err
		}
		t.sameWire(c, r.sim)
		return t.replays(c, n, prog)
	})
}

// tracedBursts replays the burst plan on the traced driver and reports
// what one burst costs the engine alone.
func tracedBursts(c *ctx, t *tracedNet, plan [][]linkUpdate) error {
	var drainMS []float64
	d0, r0 := t.derivs, t.retracts
	for _, burst := range plan {
		before := t.drained
		for _, u := range burst {
			for _, in := range u.injects() {
				if err := t.push(in.node, in.d); err != nil {
					return err
				}
			}
		}
		if err := t.run(); err != nil {
			return err
		}
		drainMS = append(drainMS, millis(t.drained-before))
	}
	c.add("engine.update.drain_ms_p50", median(drainMS))
	c.add("engine.update.derivations_per_burst", ratio(float64(t.derivs-d0), float64(len(plan))))
	c.add("engine.update.retracts_per_burst", ratio(float64(t.retracts-r0), float64(len(plan))))
	return nil
}
