package main

import (
	"runtime"
	"sync/atomic"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/topology"
	"ndlog/internal/val"
)

// coldStart is what one cold start costs: convergence (first seed to
// reported fixpoint), the heap objects allocated while converging, and
// the heap the fixpoint occupies.
type coldStart struct {
	converge time.Duration
	allocs   uint64
	heapMB   float64
}

// timeCold times run, an already built executor's cold start. The
// collector runs first so one repetition's garbage is not the next
// one's pause; the heap is read after run, with whatever the caller
// still references live.
func timeCold(run func() error) (coldStart, error) {
	var cs coldStart
	runtime.GC()
	ac := newAllocCounter()
	a0 := ac.read()
	t0 := time.Now()
	if err := run(); err != nil {
		return cs, err
	}
	cs.converge = time.Since(t0)
	cs.allocs = ac.read() - a0
	cs.heapMB = liveHeapMB()
	return cs, nil
}

// addCold reports a cold start as the repetition's op.
func (c *ctx) addCold(cs coldStart) {
	c.add("converge_s", seconds(cs.converge))
	c.add("op_p50_ms", millis(cs.converge))
	c.add("allocs_per_op", float64(cs.allocs))
	c.add("peak_heap_mb", cs.heapMB)
}

// timeSetups records samples samples of setup_s. Set-up is build:
// parse, compile, construct the executor, bind its sockets — everything
// up to but excluding the first seeded fact. One sample is the fastest
// of five consecutive builds, each released before the next: a set-up
// is 0.2 to 4 ms of work, and single timings of it moved by 2× in
// bursts (worst after the idle waits of the UDP workloads), which no
// bound on the run's median survived; best-of-five did.
func (c *ctx) timeSetups(samples int, build func() (release func(), err error)) error {
	if c.traced {
		return nil // setup_s is an end-to-end metric
	}
	for s := 0; s < samples; s++ {
		best := time.Duration(0)
		for try := 0; try < 5; try++ {
			runtime.GC()
			t0 := time.Now()
			release, err := build()
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if release != nil {
				release()
			}
			if try == 0 || d < best {
				best = d
			}
		}
		c.add("setup_s", seconds(best))
	}
	return nil
}

// simRun is an engine.Cluster over simnet taken through its cold start.
type simRun struct {
	sim  *simnet.Sim
	cl   *engine.Cluster
	cold coldStart
}

// buildCluster is the simulator deployment's set-up: parse, compile,
// one runtime per overlay node, one simulator link per overlay edge.
func buildCluster(n *network, src string, facts []val.Tuple, opts engine.Options) (*simRun, error) {
	prog, err := n.parse(src, facts)
	if err != nil {
		return nil, err
	}
	r := &simRun{sim: simnet.New(n.cfg.Seed)}
	r.cl, err = engine.NewCluster(r.sim, prog, opts, engine.ClusterConfig{ProcDelay: n.cfg.ProcDelay})
	if err != nil {
		return nil, err
	}
	for _, id := range n.overlay.Nodes {
		r.cl.AddNode(id)
	}
	for _, l := range n.overlay.Links {
		if err := r.sim.AddLink(l.A, l.B, l.LatencySec, 0); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// startCluster deploys src with facts on the overlay and runs it to
// quiescence.
func startCluster(n *network, src string, facts []val.Tuple, opts engine.Options) (*simRun, error) {
	r, err := buildCluster(n, src, facts, opts)
	if err != nil {
		return nil, err
	}
	r.cold, err = timeCold(func() error {
		ok, err := r.cl.Run(n.cfg.MaxEvents)
		if err == nil && !ok {
			err = errNotQuiescent
		}
		return err
	})
	return r, err
}

// completion is an OnStore hook recording the virtual time at which
// the last (src,dst) pair first held its oracle cost — the paper's
// convergence latency. Installed on the traced run only.
type completion struct {
	want map[[2]string]float64
	done map[[2]string]bool
	last float64
}

func newCompletion(n *network) *completion {
	cp := &completion{want: map[[2]string]float64{}, done: map[[2]string]bool{}}
	for _, s := range n.overlay.Nodes {
		dist, _ := n.overlay.ShortestPaths(s, n.metric)
		for d, cost := range dist {
			if d != s {
				cp.want[[2]string{string(s), string(d)}] = cost
			}
		}
	}
	return cp
}

func (cp *completion) onStore(_ string, d engine.Delta, now float64) {
	if d.Sign < 0 || d.Tuple.Pred != "shortestPath" {
		return
	}
	k := [2]string{d.Tuple.Fields[0].Addr(), d.Tuple.Fields[1].Addr()}
	if cp.done[k] {
		return
	}
	if diff := d.Tuple.Fields[len(d.Tuple.Fields)-1].Float() - cp.want[k]; diff < 1e-6 && diff > -1e-6 {
		cp.done[k] = true
		cp.last = now
	}
}

// vconverge falls back to the last delivery when some pair never
// completed (the oracle check reports that separately).
func (cp *completion) vconverge(sim *simnet.Sim) float64 {
	if len(cp.done) == len(cp.want) {
		return cp.last
	}
	return sim.LastDelivery()
}

// clusterRep is one repetition of a simulator workload up to its
// fixpoint: set-up samples, then the cold start. On the traced run the
// cluster carries the completion hook (virtual time is deterministic,
// so the hook cannot move it); the hook's few percent of wall time is
// in the baseline engine.cluster.overhead_share is taken against.
func clusterRep(c *ctx, n *network, src string, facts []val.Tuple, setups int) (*simRun, error) {
	opts := engineOpts
	var cp *completion
	if c.traced {
		cp = newCompletion(n)
		opts.OnStore = cp.onStore
	}
	err := c.timeSetups(setups, func() (func(), error) {
		_, err := buildCluster(n, src, facts, opts)
		return nil, err
	})
	if err != nil {
		return nil, err
	}
	r, err := startCluster(n, src, facts, opts)
	if err != nil {
		return nil, err
	}
	if cp != nil {
		c.add("vconverge_s", cp.vconverge(r.sim))
	}
	return r, nil
}

// spPool is how many overlays (seeds 1..spPool) the three sp100
// workloads cycle through: the same ten for all three, so they differ
// in executor only. One cycle is 5 to 8 s on 2 cores.
const spPool = 10

// spSim is the paper's headline experiment: all-pairs shortest paths,
// Latency metric, one cold start to fixpoint per repetition.
func spSim(c *ctx) error {
	src := programs.ShortestPath("")
	return c.cycles(spPool, func(i int) error {
		n := c.newNetwork(paperScale(), topology.Latency, int64(i%spPool)+1)
		facts := n.linkFacts()
		r, err := clusterRep(c, n, src, facts, 1)
		if err != nil {
			return err
		}
		c.addCold(r.cold)
		rows := c.checkPaths(n, r.cl.Tuples("shortestPath"))
		if !c.traced {
			return nil
		}
		c.add("result_rows", float64(rows))
		c.add("wire_msgs_per_op", float64(r.sim.Messages()))
		c.add("wire_kb_per_op", float64(r.sim.Bytes())/1e3)

		t, prog, err := tracedColdStart(c, n, src, facts, r.cold.converge)
		if err != nil {
			return err
		}
		t.sameWire(c, r.sim)
		return t.replays(c, n, prog)
	})
}

// counters are OnDerive/OnStore hooks; atomic because engine.Parallel
// calls them from every worker.
type counters struct{ derivations, stores, retracts atomic.Int64 }

func (k *counters) hook(opts engine.Options) engine.Options {
	opts.OnDerive = func(string, string, engine.Delta) { k.derivations.Add(1) }
	opts.OnStore = func(_ string, d engine.Delta, _ float64) {
		if d.Sign > 0 {
			k.stores.Add(1)
		} else {
			k.retracts.Add(1)
		}
	}
	return opts
}

// report publishes the hook counts, and the hooked executor's whole
// cold start per derivation.
func (k *counters) report(c *ctx, hooked coldStart) {
	d := float64(k.derivations.Load())
	c.add("engine.derivations", d)
	c.add("engine.stores", float64(k.stores.Load()))
	c.add("engine.retracts", float64(k.retracts.Load()))
	c.add("engine.store_ratio", ratio(float64(k.stores.Load()), d))
	c.add("engine.ns_per_derivation", ratio(float64(hooked.converge), d))
	c.add("engine.allocs_per_derivation", ratio(float64(hooked.allocs), d))
}

// overhead is what the hooks cost: (hooked − plain) ÷ plain.
func overhead(hooked, plain coldStart) float64 {
	return ratio(seconds(hooked.converge-plain.converge), seconds(plain.converge))
}

// atOneProc runs f with GOMAXPROCS(1), so executors that size their
// pool from it run sequentially, and restores the setting.
func atOneProc(f func() error) error {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	return f()
}

// executor is the part of engine.Central and engine.Parallel the sp100
// workloads need: built by set-up, run once, read once.
type executor struct {
	run  func() error
	rows func() []val.Tuple
}

func buildCentral(n *network, src string, facts []val.Tuple, opts engine.Options) (executor, error) {
	prog, err := n.parse(src, facts)
	if err != nil {
		return executor{}, err
	}
	ce, err := engine.NewCentral(prog, opts)
	if err != nil {
		return executor{}, err
	}
	return executor{
		run:  func() error { ce.LoadFacts(); return nil },
		rows: func() []val.Tuple { return ce.Tuples("shortestPath") },
	}, nil
}

// buildParallel gives every overlay node its own runtime, at the
// executor's default pool size.
func buildParallel(n *network, src string, facts []val.Tuple, opts engine.Options) (executor, error) {
	prog, err := n.parse(src, facts)
	if err != nil {
		return executor{}, err
	}
	p, err := engine.NewParallel(prog, opts)
	if err != nil {
		return executor{}, err
	}
	for _, id := range n.ids() {
		p.AddNode(id)
	}
	return executor{
		run:  p.Run,
		rows: func() []val.Tuple { return p.Tuples("shortestPath") },
	}, nil
}

type buildFunc func(n *network, src string, facts []val.Tuple, opts engine.Options) (executor, error)

// inProcess is the shape sp100-central and sp100-par share: the program
// and facts of sp100-sim on an executor with no wire. extra runs the
// workload's own traced variants against the plain cold start.
func inProcess(c *ctx, build buildFunc, extra func(start func(engine.Options) (coldStart, error), plain coldStart) error) error {
	src := programs.ShortestPath("")
	return c.cycles(spPool, func(i int) error {
		n := c.newNetwork(paperScale(), topology.Latency, int64(i%spPool)+1)
		facts := n.linkFacts()
		// start builds, cold-starts and oracle-checks one executor.
		var rows int
		start := func(opts engine.Options) (coldStart, error) {
			ex, err := build(n, src, facts, opts)
			if err != nil {
				return coldStart{}, err
			}
			cs, err := timeCold(ex.run)
			if err != nil {
				return cs, err
			}
			rows = c.checkPaths(n, ex.rows())
			return cs, nil
		}
		err := c.timeSetups(1, func() (func(), error) {
			_, err := build(n, src, facts, engineOpts)
			return nil, err
		})
		if err != nil {
			return err
		}
		plain, err := start(engineOpts)
		if err != nil {
			return err
		}
		c.addCold(plain)
		if !c.traced {
			return nil
		}
		c.add("result_rows", float64(rows))
		if err := tracedFrontEnd(c, n.ids()[0], src, engineOpts); err != nil {
			return err
		}
		var k counters
		hooked, err := start(k.hook(engineOpts))
		if err != nil {
			return err
		}
		k.report(c, hooked)
		c.add("trace.overhead_share", overhead(hooked, plain))
		return extra(start, plain)
	})
}

// spCentral is the same program and facts on one node: no codec, no
// network, no partitioning. Its hooked pass forces Central's sequential
// path, so trace.overhead_share here also prices the default pool
// against no pool; the SN passes price the other evaluation mode.
func spCentral(c *ctx) error {
	return inProcess(c, buildCentral, func(start func(engine.Options) (coldStart, error), _ coldStart) error {
		sn := engineOpts
		sn.Mode = engine.SN
		cs, err := start(sn)
		if err != nil {
			return err
		}
		c.add("engine.central.sn_converge_s", seconds(cs.converge))
		return atOneProc(func() error {
			cs, err := start(sn)
			c.add("engine.central.sn_p1_converge_s", seconds(cs.converge))
			return err
		})
	})
}

// spParallel is the only multi-core executor; one worker is its
// baseline.
func spParallel(c *ctx) error {
	return inProcess(c, buildParallel, func(start func(engine.Options) (coldStart, error), plain coldStart) error {
		return atOneProc(func() error {
			w1, err := start(engineOpts)
			c.add("engine.parallel.w1_converge_s", seconds(w1.converge))
			c.add("engine.parallel.speedup_x", ratio(seconds(w1.converge), seconds(plain.converge)))
			return err
		})
	})
}
