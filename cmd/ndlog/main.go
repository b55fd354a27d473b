// Command ndlog runs an NDlog program. By default it evaluates the
// program at a single site (centralized); with -dist it deploys one
// runtime per address mentioned in the program's facts over the
// discrete-event simulator, connecting nodes according to the link
// facts; with -parallel it runs the same population inside one
// process with independent nodes drained concurrently, one worker per
// GOMAXPROCS; with -shards N it deploys the population as N real OS
// processes exchanging tuples over loopback UDP (internal/shard).
//
// Usage:
//
//	ndlog program.ndl                 # centralized evaluation
//	ndlog -dist -latency 10ms prog.ndl
//	ndlog -parallel prog.ndl          # one runtime per node, GOMAXPROCS workers
//	ndlog -shards 3 prog.ndl          # 3 worker processes over UDP
//	ndlog -shards 3 -data ./state prog.ndl   # durable workers (WAL + snapshots)
//	ndlog -dump path,shortestPath prog.ndl
//	ndlog -explain prog.ndl           # print the access-path plan, evaluate nothing
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"ndlog/internal/ast"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/shard"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

func main() {
	// Re-exec entry: `ndlog -shards N` spawns copies of this binary as
	// shard workers, selected by environment (see internal/shard).
	if handled, err := shard.MaybeRunWorker(); handled {
		if err != nil {
			fail(err)
		}
		return
	}

	dist := flag.Bool("dist", false, "distributed execution over the simulator")
	parallel := flag.Bool("parallel", false, "in-process parallel execution: one runtime per node address, drained concurrently by GOMAXPROCS workers (not with -shards)")
	shards := flag.Int("shards", 0, "deploy as N OS processes over loopback UDP (0: off)")
	migrate := flag.String("migrate", "", "with -shards: migrate nodes mid-run, e.g. 'c@1' or 'c@1,d@2' (node@target-shard)")
	data := flag.String("data", "", "with -shards: persist worker state (WAL + snapshots) under this directory; workers respawn warm from it")
	timeout := flag.Duration("timeout", 60*time.Second, "convergence timeout for -shards")
	latency := flag.Duration("latency", 10*time.Millisecond, "link latency for distributed execution")
	aggsel := flag.Bool("aggsel", true, "enable aggregate selections")
	dump := flag.String("dump", "", "comma-separated extra predicates to print")
	trace := flag.Bool("trace", false, "trace derivations of watched predicates")
	explain := flag.Bool("explain", false, "print the compiled access-path plan (per rule and trigger, how each other body atom is probed; per predicate, the indexes a node maintains) and exit without evaluating")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ndlog [flags] program.ndl")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	prog, err := parser.Parse(string(src))
	if err != nil {
		fail(err)
	}

	if *explain {
		plan, err := engine.Explain(prog)
		if err != nil {
			fail(err)
		}
		fmt.Print(plan)
		return
	}

	opts := engine.Options{AggSel: *aggsel}
	if *trace && len(prog.Watches) > 0 {
		watched := map[string]bool{}
		for _, w := range prog.Watches {
			watched[w] = true
		}
		opts.OnDerive = func(nodeID, rule string, d engine.Delta) {
			if watched[d.Tuple.Pred] {
				fmt.Printf("watch [%s] %s: %s\n", nodeID, rule, d)
			}
		}
	}

	var results func(pred string) []val.Tuple
	var queryPred string
	if prog.Query != nil {
		queryPred = prog.Query.Pred
	}

	var cleanup func()
	if *shards > 0 && *parallel {
		fail(fmt.Errorf("-parallel and -shards are exclusive: each shard worker walks its nodes itself"))
	}
	if *shards > 0 {
		if *trace {
			fmt.Fprintln(os.Stderr, "ndlog: -trace has no effect with -shards (derivations happen in worker processes)")
		}
		migs, err := parseMigrations(*migrate)
		if err != nil {
			fail(err)
		}
		sOpts := shard.Options{AggSel: *aggsel, DataDir: *data}
		results, cleanup, err = runSharded(string(src), prog, *shards, migs, sOpts, *timeout)
		if err != nil {
			fail(err)
		}
	} else if *parallel {
		// In-process parallel executor: one runtime per node address,
		// independent nodes drained concurrently on a GOMAXPROCS worker
		// pool. Real concurrency, no modeled latency — the multi-core
		// counterpart of -dist.
		p, err := engine.NewParallel(prog, opts)
		if err != nil {
			fail(err)
		}
		for _, id := range factAddresses(prog) {
			p.AddNode(id)
		}
		start := time.Now()
		if err := p.Run(); err != nil {
			fail(err)
		}
		fmt.Printf("// parallel: %d nodes, %d workers, %d undeliverable, converged in %.3fs\n",
			len(p.Nodes()), p.Workers(), p.Undeliverable(), time.Since(start).Seconds())
		results = p.Tuples
	} else if *dist {
		sim := simnet.New(1)
		cl, err := engine.NewCluster(sim, prog, opts, engine.ClusterConfig{ProcDelay: 0.001})
		if err != nil {
			fail(err)
		}
		for _, id := range factAddresses(prog) {
			cl.AddNode(simnet.NodeID(id))
		}
		for _, l := range linkPairs(prog) {
			if !sim.HasLink(simnet.NodeID(l[0]), simnet.NodeID(l[1])) {
				if err := sim.AddLink(simnet.NodeID(l[0]), simnet.NodeID(l[1]), latency.Seconds(), 0); err != nil {
					fail(err)
				}
			}
		}
		ok, err := cl.Run(50_000_000)
		if err != nil {
			fail(err)
		}
		if !ok {
			fail(fmt.Errorf("execution did not quiesce"))
		}
		net := cl.Netting()
		fmt.Printf("// distributed: %d nodes, %d messages, %d bytes, converged at %.3fs; netted %d queue retractions, %d paired walks, %d replacement windows (%d silent)\n",
			len(cl.Nodes()), sim.Messages(), sim.Bytes(), sim.LastDelivery(),
			net.QueueFolded, net.PairedWalks, net.ReplaceWindows, net.ReplaceSilent)
		results = cl.Tuples
	} else {
		c, err := engine.NewCentral(prog, opts)
		if err != nil {
			fail(err)
		}
		c.LoadFacts()
		results = c.Tuples
	}

	printed := map[string]bool{}
	if queryPred != "" {
		printPred(queryPred, results(queryPred))
		printed[queryPred] = true
	}
	for _, pred := range strings.Split(*dump, ",") {
		pred = strings.TrimSpace(pred)
		if pred == "" || printed[pred] {
			continue
		}
		printPred(pred, results(pred))
		printed[pred] = true
	}
	if cleanup != nil {
		cleanup()
	}
}

// parseMigrations parses a -migrate spec: comma-separated node@shard
// moves, applied as one rebalance plan after the deployment starts.
func parseMigrations(spec string) ([]shard.Migration, error) {
	if spec == "" {
		return nil, nil
	}
	var migs []shard.Migration
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		node, shardStr, ok := strings.Cut(part, "@")
		if !ok || node == "" {
			return nil, fmt.Errorf("bad -migrate entry %q (want node@shard)", part)
		}
		id, err := strconv.Atoi(shardStr)
		if err != nil {
			return nil, fmt.Errorf("bad -migrate shard in %q: %v", part, err)
		}
		migs = append(migs, shard.Migration{Node: node, To: id})
	}
	return migs, nil
}

// runSharded deploys the program as N worker processes (re-execs of
// this binary) over loopback UDP, optionally rebalances nodes mid-run,
// waits for convergence, and returns a live gather function plus the
// teardown. The manifest carries the program source inline so every
// worker parses identical text.
func runSharded(src string, prog *ast.Program, shards int, migs []shard.Migration, sOpts shard.Options, timeout time.Duration) (func(pred string) []val.Tuple, func(), error) {
	ids := factAddresses(prog)
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("no node addresses in program facts")
	}
	if sOpts.DataDir != "" {
		// Workers resolve relative DataDir against their own cwd; pin it.
		abs, err := filepath.Abs(sOpts.DataDir)
		if err != nil {
			return nil, nil, err
		}
		sOpts.DataDir = abs
	}
	m := &shard.Manifest{
		Source:  src,
		Options: sOpts,
		Shards:  shard.Partition(ids, shards),
	}
	dir, err := os.MkdirTemp("", "ndlog-shards-")
	if err != nil {
		return nil, nil, err
	}
	manifestPath := dir + "/manifest.json"
	if err := m.Save(manifestPath); err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	coord, err := shard.NewCoordinator(m)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	self, err := os.Executable()
	if err != nil {
		coord.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	start := time.Now()
	err = coord.Spawn(func(shardID int) *exec.Cmd {
		cmd := exec.Command(self)
		cmd.Env = append(os.Environ(), shard.WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		// Spawn killed any partially started workers.
		coord.Close()
		os.RemoveAll(dir)
		return nil, nil, err
	}
	cleanup := func() {
		if err := coord.Shutdown(10 * time.Second); err != nil {
			fmt.Fprintln(os.Stderr, "ndlog:", err)
		}
		os.RemoveAll(dir)
	}
	if err := coord.WaitReady(15 * time.Second); err != nil {
		cleanup()
		return nil, nil, err
	}
	// Mid-run elasticity demo: rebalance the requested nodes onto their
	// target shards under a new epoch, then converge as usual.
	if len(migs) > 0 {
		rep, err := coord.Rebalance(migs, timeout)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		fmt.Printf("// rebalance: epoch %d, %d nodes moved, %d state bytes, quiesce-wait %.3fs, pause %.3fs\n",
			rep.Epoch, len(rep.Moved), rep.StateBytes,
			rep.QuiesceWait.Seconds(), rep.Pause.Seconds())
	}
	// Converge: the links are reliable, so quiescence is the fixpoint.
	if !coord.WaitQuiescent(timeout) {
		cleanup()
		return nil, nil, fmt.Errorf("sharded execution did not quiesce within %v", timeout)
	}
	stats := coord.TotalStats()
	fmt.Printf("// sharded: %d processes, %d nodes, %d messages (%d retransmitted), %d bytes, converged in %.3fs\n",
		len(m.Shards), m.NodeCount(), stats.SentMessages, stats.Retransmits, stats.SentBytes,
		time.Since(start).Seconds())
	results := func(pred string) []val.Tuple {
		ts, err := coord.Tuples(pred, 10*time.Second)
		if err != nil {
			// Tear the fleet down before exiting: fail() skips cleanup.
			cleanup()
			fail(err)
		}
		return ts
	}
	return results, cleanup, nil
}

func printPred(pred string, tuples []val.Tuple) {
	fmt.Printf("// %s: %d tuples\n", pred, len(tuples))
	for _, t := range tuples {
		fmt.Printf("%s.\n", t)
	}
}

// factAddresses collects every address constant in the program's facts:
// the node population for distributed execution.
func factAddresses(p *ast.Program) []string {
	seen := map[string]bool{}
	var out []string
	add := func(v val.Value) {
		if v.Kind() == val.KindAddr && !seen[v.Addr()] {
			seen[v.Addr()] = true
			out = append(out, v.Addr())
		}
	}
	for _, f := range p.Facts {
		for _, v := range f.Fields {
			add(v)
		}
	}
	return out
}

// linkPairs returns the (src,dst) pairs of the program's link-relation
// facts, determining simulator connectivity.
func linkPairs(p *ast.Program) [][2]string {
	links := map[string]bool{}
	for _, r := range p.Rules {
		for _, a := range r.Atoms() {
			if a.Link {
				links[a.Pred] = true
			}
		}
	}
	var out [][2]string
	for _, f := range p.Facts {
		if !links[f.Pred] || len(f.Fields) < 2 {
			continue
		}
		if f.Fields[0].Kind() != val.KindAddr || f.Fields[1].Kind() != val.KindAddr {
			continue
		}
		out = append(out, [2]string{f.Fields[0].Addr(), f.Fields[1].Addr()})
	}
	return out
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ndlog:", err)
	os.Exit(1)
}
