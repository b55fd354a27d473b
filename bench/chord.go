package main

import (
	"ndlog/internal/conform"
	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
)

// chordOutcome is one Chord run taken to a clean ring and through its
// lookups.
type chordOutcome struct {
	run      *conform.ChordRun
	cold     coldStart
	ringAt   float64 // virtual time of the first clean CheckRing
	ringErrs int
	lookups  int
	wrong    int
}

// chordOpts is conform's default deployment at a smaller ring: nodes
// Chord nodes plus two idle reserve nodes, as the conformance rows run
// it. Its set-up (NewChordRun) also injects the mesh's conn facts and
// schedules the joins; nothing runs until the simulator does.
func chordOpts(seed int64, nodes int, hooks engine.Options) conform.ChordOpts {
	o := conform.DefaultChordOpts(seed)
	o.Nodes, o.Reserve, o.Engine = nodes, 2, hooks
	return o
}

// startChord builds a ring of nodes Chord nodes (plus two idle reserve
// nodes, as the conformance rows do), polls the ring invariant once per
// virtual second until the oracle finds it clean, then issues lookups
// and retries the unanswered ones up to five times, two virtual seconds
// apart. Chord keeps conform's engine options: aggregate selections are
// not sound for its candidate-set aggregates.
func startChord(seed int64, nodes int, hooks engine.Options) (*chordOutcome, error) {
	const (
		lookups  = 24
		deadline = 240.0
	)
	out := &chordOutcome{lookups: lookups}
	o := chordOpts(seed, nodes, hooks)
	var err error
	if out.run, err = conform.NewChordRun(o); err != nil {
		return nil, err
	}
	out.cold, err = timeCold(func() error {
		r := out.run
		now := r.Net.Sim.Now
		// At t=0 the landmark alone is vacuously a ring; skip the
		// staggered bring-up before polling.
		r.RunUntil(10)
		errs := r.CheckRing()
		for len(errs) > 0 && now() < deadline {
			r.RunUntil(now() + 1)
			errs = r.CheckRing()
		}
		out.ringAt, out.ringErrs = now(), len(errs)

		samples := r.InjectLookups(lookups)
		for attempt := 0; len(samples) > 0 && attempt < 5; attempt++ {
			r.RunUntil(now() + 2)
			failed, errs := r.CheckLookups(samples)
			out.wrong += len(errs)
			samples = samples[:0]
			for _, s := range failed {
				samples = append(samples, r.Reinject(s))
			}
		}
		out.wrong += len(samples) // never answered
		return nil
	})
	return out, err
}

// chordSeeds are the simulator seeds chord32-sim draws from. Node names
// and so ring ids are fixed; the seed only moves message jitter and
// lookup keys, yet bring-up is chaotic in it: of seeds 1..40 at 32
// nodes, six leave a stable but wrong (doubly wound) ring, two more hit
// a retraction cascade several times the usual cost, and at other
// JoinGap settings a run was seen not to finish in minutes. None of
// that is the benchmark's to fix, and a workload must not fail on its
// own inputs, so the pool is the first eight seeds that converge, all
// run once per cycle; a change that breaks one shows as failed checks.
// This workload's inputs therefore do not depend on --seed.
var chordSeeds = []int64{1, 3, 4, 5, 6, 7, 8, 9}

// chordSim is the soft-state workload: ring formation, stabilization
// and finger maintenance driven by simnet timers, checked against the
// sorted-ring oracle and the true successor of every looked-up key.
func chordSim(c *ctx) error {
	nodes := 32
	if c.smoke {
		nodes = 16
	}

	return c.cycles(len(chordSeeds), func(i int) error {
		seed := chordSeeds[i%len(chordSeeds)]
		err := c.timeSetups(1, func() (func(), error) {
			_, err := conform.NewChordRun(chordOpts(seed, nodes, engine.Options{}))
			return nil, err
		})
		if err != nil {
			return err
		}
		out, err := startChord(seed, nodes, engine.Options{})
		if err != nil {
			return err
		}
		c.addCold(out.cold)
		c.checkChord(out, nodes)
		if !c.traced {
			return nil
		}
		sim := out.run.Net.Sim
		c.add("vconverge_s", out.ringAt)
		c.add("wire_msgs_per_op", float64(sim.Messages()))
		c.add("wire_kb_per_op", float64(sim.Bytes())/1e3)
		c.add("result_rows", float64(len(out.run.Net.Cluster.Tuples("bestSucc"))))

		src := programs.Chord(out.run.Opts.Cfg)
		if err := tracedFrontEnd(c, out.run.Names[0], src, engine.Options{}); err != nil {
			return err
		}
		var k counters
		hooked, err := startChord(seed, nodes, k.hook(engine.Options{}))
		if err != nil {
			return err
		}
		c.checkChord(hooked, nodes)
		k.report(c, hooked.cold)
		c.add("trace.overhead_share", overhead(hooked.cold, out.cold))

		// The simulator alone: as many messages of the mean size, over
		// the same full mesh, to nodes that do nothing.
		names := out.run.Names
		ids := make([]simnet.NodeID, len(names))
		var links []simLink
		for i, a := range names {
			ids[i] = simnet.NodeID(a)
			for _, b := range names[i+1:] {
				links = append(links, simLink{simnet.NodeID(a), simnet.NodeID(b), out.run.Opts.Latency})
			}
		}
		payload := make([]byte, sim.Bytes()/max(sim.Messages(), 1))
		msgs := make([]wireMsg, sim.Messages())
		for i := range msgs {
			msgs[i] = wireMsg{from: names[i%len(names)], to: names[(i+1)%len(names)], payload: payload}
		}
		return replaySimnet(c, seed, ids, links, msgs)
	})
}

// checkChord counts one attempt per ring node and one per lookup.
func (c *ctx) checkChord(out *chordOutcome, nodes int) {
	for i := 0; i < nodes; i++ {
		c.check(i >= out.ringErrs, "chord: bestSucc differs from the sorted ring")
	}
	for i := 0; i < out.lookups; i++ {
		c.check(i >= out.wrong, "chord: lookup unanswered or resolved to the wrong successor")
	}
}
