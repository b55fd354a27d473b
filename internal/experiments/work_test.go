package experiments

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/conform"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/topology"
	"ndlog/internal/val"
)

var update = flag.Bool("update", false, "rewrite testdata/work/*.golden from the current engine")

// TestWork is the paper's evaluation as one table of exact work counts.
// Under simnet's virtual time every count is deterministic, so each row
// is pinned in testdata/work/<table>.golden: a change that moves a count
// shows up as a golden diff (regenerate with -update and review it). The
// figures' comparative claims (Figs 7–14) are the tests after it, each
// an assertion over these rows.
func TestWork(t *testing.T) {
	w := buildWork(t)
	for _, tb := range w.tables {
		if tb.built {
			tb.compare(t)
		}
	}
	last = w
}

// last is the work TestWork built most recently, which the figure tests
// read rather than build again.
var last *work

// buildWork runs every table, each in a parallel subtest. The unpruned
// baseline costs as much as all the other rows together, so it is a
// table of its own.
func buildWork(t *testing.T) *work {
	w := &work{cfg: Small(), rows: map[string]counts{}}
	w.o = BuildOverlay(w.cfg)
	t.Run("rows", func(t *testing.T) {
		for _, tb := range []struct {
			name, title string
			build       func(*build)
		}{
			{"baseline", "Figs 7/8's baseline: Figure 1's program without aggregate selections, 14-node Small overlay", (*build).baseline},
			{"shortestpath", "Figs 7-10: Figure 1's all-pairs shortest paths per link metric, 14-node Small overlay", (*build).shortestPath},
			{"dv", "Figs 13/14: distance-vector shortest paths (Random metric), cold start and one link-cost burst, 14-node Small overlay", (*build).distanceVector},
			{"share", "Fig 12: three concurrent all-pairs queries (Latency, Reliability, Random), batched vs shared, 14-node Small overlay", (*build).share},
			{"magic", "Fig 11 and §5.1.2: magic sets and query-result caching on hop-count links, 14-node Small overlay", (*build).magic},
			{"protocols", "protocol suite: conform's harnesses at tier-1 scale, seed 1, to the oracle-clean fixpoint", (*build).protocols},
		} {
			b := &build{work: w, tb: &table{name: tb.name, title: tb.title, got: map[string][]string{}}}
			w.tables = append(w.tables, b.tb)
			t.Run(tb.name, func(t *testing.T) {
				t.Parallel()
				b.t = t
				tb.build(b)
				b.tb.built = true
			})
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	return w
}

// rows returns every table's rows for a figure test: TestWork's, or, when
// it did not run or -run filtered some of its tables out, a fresh build.
func rows(t *testing.T) *work {
	t.Helper()
	if !last.complete() {
		last = buildWork(t)
	}
	return last
}

func (w *work) complete() bool {
	if w == nil {
		return false
	}
	for _, tb := range w.tables {
		if !tb.built {
			return false
		}
	}
	return true
}

// row returns one row, "table:row".
func (w *work) row(t *testing.T, key string) counts {
	t.Helper()
	c, ok := w.rows[key]
	if !ok {
		t.Fatalf("no row %s", key)
	}
	return c
}

// counts is one row: the work a run did up to its oracle-clean fixpoint.
type counts struct {
	// derivs counts OnDerive, retracts and stores OnStore by sign: the
	// way bench/'s engine.* counters count them.
	derivs, retracts, stores int64
	// msgs and bytes are simnet's wire totals; Central sends nothing.
	msgs, bytes int64
	// results is the number of rows of the program's query predicate.
	results int
	// vtime is the virtual time of the oracle-clean fixpoint.
	vtime   float64
	central bool
}

// hook layers the row's counters over opts.
func (c *counts) hook(opts engine.Options) engine.Options {
	opts.OnDerive = func(string, string, engine.Delta) { c.derivs++ }
	opts.OnStore = func(_ string, d engine.Delta, _ float64) {
		if d.Sign < 0 {
			c.retracts++
		} else {
			c.stores++
		}
	}
	return opts
}

// wire records a quiescent simulator's traffic and fixpoint time.
func (c *counts) wire(sim *simnet.Sim) {
	c.msgs, c.bytes, c.vtime = sim.Messages(), sim.Bytes(), sim.LastDelivery()
}

func (c *counts) add(d counts) {
	c.derivs += d.derivs
	c.retracts += d.retracts
	c.stores += d.stores
	c.msgs += d.msgs
	c.bytes += d.bytes
	c.results += d.results
	c.vtime += d.vtime
}

// fields renders a row's counters in golden column order.
func (c counts) fields() []string {
	f := []string{fmt.Sprint(c.derivs), fmt.Sprint(c.retracts), fmt.Sprint(c.stores), "-", "-", fmt.Sprint(c.results), "-"}
	if !c.central {
		f[3], f[4], f[6] = fmt.Sprint(c.msgs), fmt.Sprint(c.bytes), fmt.Sprintf("%.4f", c.vtime)
	}
	return f
}

var columns = []string{"derivs", "retracts", "stores", "msgs", "bytes", "results", "vtime"}

// table is one golden file: its rows in order, then its notes — the
// cells that do not apply ("skip <cells>: <reason>"), and what a check
// tolerates ("note <row>: ...").
type table struct {
	name, title string
	rows        []string
	got         map[string][]string
	notes       []string
	built       bool // its subtest ran, and -run did not filter it out
}

func (tb *table) text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# regenerate: go test ./internal/experiments -run TestWork -update\n", tb.title)
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %6s %8s %7s %9s\n", "row", columns[0], columns[1], columns[2], columns[3], columns[4], columns[5], columns[6])
	for _, r := range tb.rows {
		f := tb.got[r]
		fmt.Fprintf(&b, "%-24s %8s %8s %8s %6s %8s %7s %9s\n", r, f[0], f[1], f[2], f[3], f[4], f[5], f[6])
	}
	for _, s := range tb.notes {
		fmt.Fprintf(&b, "%s\n", s)
	}
	return b.String()
}

// compare checks the table against its golden, naming the row and the
// counter of every mismatch with both values.
func (tb *table) compare(t *testing.T) {
	t.Helper()
	file := filepath.Join("testdata", "work", tb.name+".golden")
	got := tb.text()
	if *update {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) == got {
		return
	}
	want := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == len(columns)+1 && f[0] != "row" && f[0] != "#" {
			want[f[0]] = f[1:]
		}
	}
	for _, r := range tb.rows {
		w, ok := want[r]
		if !ok {
			t.Errorf("%s: row %s is new: %v", file, r, tb.got[r])
			continue
		}
		delete(want, r)
		for i, v := range tb.got[r] {
			if w[i] != v {
				t.Errorf("%s: row %s: %s was %s, now %s", file, r, columns[i], w[i], v)
			}
		}
	}
	for r := range want {
		t.Errorf("%s: row %s is gone", file, r)
	}
	if !t.Failed() {
		t.Errorf("%s: header or notes changed:\n%s", file, got)
	}
}

// work is the whole table set.
type work struct {
	cfg    Config
	o      *topology.Overlay
	tables []*table
	mu     sync.Mutex
	rows   map[string]counts // "table:row"
}

// build fills one table from its own subtest.
type build struct {
	*work
	t  *testing.T
	tb *table
}

func (w *build) add(row string, c counts) {
	w.tb.rows = append(w.tb.rows, row)
	w.tb.got[row] = c.fields()
	w.mu.Lock()
	w.rows[w.tb.name+":"+row] = c
	w.mu.Unlock()
}

// executor is one evaluation column: Central, or the simnet Cluster
// under PSN or SN.
type executor struct {
	name    string
	central bool
	mode    engine.Mode
}

var executors = []executor{{name: "central", central: true}, {name: "psn"}, {name: "sn", mode: engine.SN}}

// variant is one optimisation setting.
type variant struct {
	name string
	opts engine.Options
	cc   engine.ClusterConfig
}

var (
	plain  = variant{name: "plain"}
	aggsel = variant{name: "aggsel", opts: engine.Options{AggSel: true}}
	// period is Figs 9/10's periodic aggregate selections.
	period = variant{name: "period", opts: engine.Options{AggSel: true}, cc: engine.ClusterConfig{AggSelPeriod: 0.1}}
)

// linkSet is one metric's link facts under a predicate suffix.
type linkSet struct {
	sfx string
	m   topology.Metric
}

// metricName is a metric's row label.
var metricName = map[topology.Metric]string{
	topology.HopCount: "hop", topology.Latency: "lat", topology.Reliability: "rel", topology.Random: "rnd",
}

// program parses src and adds a link fact each way along every overlay
// link for each link set, then the extra facts.
func program(t *testing.T, o *topology.Overlay, src string, links []linkSet, facts ...val.Tuple) *ast.Program {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ls := range links {
		for _, l := range o.Links {
			cost := l.Cost[ls.m]
			prog.Facts = append(prog.Facts,
				programs.LinkFact("link"+ls.sfx, string(l.A), string(l.B), cost),
				programs.LinkFact("link"+ls.sfx, string(l.B), string(l.A), cost))
		}
	}
	prog.Facts = append(prog.Facts, facts...)
	return prog
}

// deploy attaches a Cluster running prog to a simulator wired as the
// overlay.
func (w *build) deploy(o *topology.Overlay, prog *ast.Program, opts engine.Options, cc engine.ClusterConfig) (*simnet.Sim, *engine.Cluster) {
	w.t.Helper()
	sim := simnet.New(w.cfg.Seed)
	cc.ProcDelay = w.cfg.ProcDelay
	cl, err := engine.NewCluster(sim, prog, opts, cc)
	if err != nil {
		w.t.Fatal(err)
	}
	for _, n := range o.Nodes {
		cl.AddNode(n)
	}
	for _, l := range o.Links {
		if err := sim.AddLink(l.A, l.B, l.LatencySec, 0); err != nil {
			w.t.Fatal(err)
		}
	}
	return sim, cl
}

// quiesce runs the simulator to quiescence or fails the test.
func (w *build) quiesce(sim *simnet.Sim, what string) {
	w.t.Helper()
	if !sim.RunToQuiescence(w.cfg.MaxEvents) {
		w.t.Fatalf("%s did not quiesce within %d events", what, w.cfg.MaxEvents)
	}
}

// run evaluates prog to its fixpoint under ex and v, checks the fixpoint
// with check, and returns the row.
func (w *build) run(row string, ex executor, v variant, prog *ast.Program, check func(tuples func(string) []val.Tuple) error) counts {
	w.t.Helper()
	c := counts{central: ex.central}
	opts := c.hook(v.opts)
	opts.Mode = ex.mode
	var err error
	if ex.central {
		var ce *engine.Central
		if ce, err = engine.NewCentral(prog, opts); err != nil {
			w.t.Fatal(err)
		}
		ce.LoadFacts()
		c.results = len(ce.QueryResults())
		err = check(ce.Tuples)
	} else {
		sim, cl := w.deploy(w.o, prog, opts, v.cc)
		if err := cl.Seed(); err != nil {
			w.t.Fatal(err)
		}
		w.quiesce(sim, row)
		c.wire(sim)
		c.results = len(cl.QueryResults())
		err = check(cl.Tuples)
	}
	if err != nil {
		w.t.Errorf("%s: %v", row, err)
	}
	return c
}

// oracle is the best cost of every ordered pair under a metric.
func oracle(o *topology.Overlay, m topology.Metric) map[[2]string]float64 {
	out := map[[2]string]float64{}
	for _, s := range o.Nodes {
		dist, _ := o.ShortestPaths(s, m)
		for d, c := range dist {
			if d != s {
				out[[2]string{string(s), string(d)}] = c
			}
		}
	}
	return out
}

// allPairs checks a fixpoint's pred(@S, @D, ..., C) rows against the
// Dijkstra oracle: every pair present, every row at the best cost.
func allPairs(o *topology.Overlay, m topology.Metric, pred string) func(func(string) []val.Tuple) error {
	want := oracle(o, m)
	return func(tuples func(string) []val.Tuple) error {
		seen, wrong := map[[2]string]bool{}, 0
		for _, t := range tuples(pred) {
			k := [2]string{t.Fields[0].Addr(), t.Fields[1].Addr()}
			if math.Abs(t.Fields[len(t.Fields)-1].Float()-want[k]) > 1e-6 {
				wrong++
			}
			seen[k] = true
		}
		if wrong > 0 || len(seen) != len(want) {
			return fmt.Errorf("%s: %d of %d pairs present, %d rows at a wrong cost", pred, len(seen), len(want), wrong)
		}
		return nil
	}
}

// baseline is Figs 7/8's unpruned row. Without aggregate selections the
// program derives and ships every simple path once, whatever the metric —
// and that costs a run as much as all of TestWork's other rows together —
// so one metric, under PSN, is the baseline for all four.
func (w *build) baseline() {
	row := "hop/psn/plain"
	prog := program(w.t, w.o, programs.ShortestPath(""), []linkSet{{"", topology.HopCount}})
	w.add(row, w.run(row, executors[1], plain, prog, allPairs(w.o, topology.HopCount, "shortestPath")))
	w.tb.notes = []string{
		"skip {lat,rel,rnd}/psn/plain: unpruned, each metric ships the same simple paths hop's row does",
		"skip */{central,sn}/plain: the unpruned baseline runs once, under PSN",
	}
}

// shortestPath is Figs 7–10: Figure 1's all-pairs query under each link
// metric, with aggregate selections immediate and periodic.
func (w *build) shortestPath() {
	for _, m := range topology.AllMetrics() {
		for _, ex := range executors {
			for _, v := range []variant{aggsel, period} {
				if ex.central && v.cc.AggSelPeriod > 0 {
					continue
				}
				row := metricName[m] + "/" + ex.name + "/" + v.name
				prog := program(w.t, w.o, programs.ShortestPath(""), []linkSet{{"", m}})
				w.add(row, w.run(row, ex, v, prog, allPairs(w.o, m, "shortestPath")))
			}
		}
	}
	w.tb.notes = []string{
		"skip */*/plain: the unpruned baseline is baseline.golden's",
		"skip */central/period: the period is a Cluster flush timer, and Central has no clock",
		"skip */*/share: Fig 12 shares messages among three concurrent queries (share.golden)",
		"skip */*/magic: the query-driven program is magic.golden's",
	}
}

// distanceVector is Figs 13/14: the distance-vector program's cold start,
// and one burst of link-cost updates.
func (w *build) distanceVector() {
	for _, ex := range executors {
		for _, v := range []variant{plain, aggsel, period} {
			if ex.central && v.cc.AggSelPeriod > 0 {
				continue
			}
			row := "rnd/" + ex.name + "/" + v.name
			prog := program(w.t, w.o, programs.ShortestPathDV(""), []linkSet{{"", topology.Random}})
			w.add(row, w.run(row, ex, v, prog, allPairs(w.o, topology.Random, "shortestPath")))
		}
	}
	w.add("rnd/psn/aggsel/burst", w.burst())
	w.tb.notes = []string{
		"skip rnd/central/period: the period is a Cluster flush timer, and Central has no clock",
		"skip rnd/*/share: sharing is Fig 12's, measured on Figure 1's program (share.golden)",
		"skip rnd/*/magic: the query-driven program is magic.golden's",
		"skip rnd/{central,sn}/*/burst: one burst row, as bench/'s dv100-updates-sim runs it",
	}
}

// burst re-costs a third of the links, drawn by a fixed seed, once the
// distance-vector program has converged under PSN with aggregate
// selections, and counts what re-convergence costs. Updates mutate a
// private overlay's costs (the oracle reads them) and are injected at
// both endpoints as primary-key replacements.
func (w *build) burst() counts {
	o := BuildOverlay(w.cfg)
	var c counts
	prog := program(w.t, o, programs.ShortestPathDV(""), []linkSet{{"", topology.Random}})
	sim, cl := w.deploy(o, prog, c.hook(aggsel.opts), engine.ClusterConfig{})
	if err := cl.Seed(); err != nil {
		w.t.Fatal(err)
	}
	w.quiesce(sim, "burst cold start")
	c = counts{}
	start, msgs, bytes := sim.Now(), sim.Messages(), sim.Bytes()
	recost(w.t, cl, o, rand.New(rand.NewSource(7)), 0.3)
	w.quiesce(sim, "burst")
	if err := allPairs(o, topology.Random, "shortestPath")(cl.Tuples); err != nil {
		w.t.Errorf("after the burst: %v", err)
	}
	c.msgs, c.bytes, c.vtime = sim.Messages()-msgs, sim.Bytes()-bytes, sim.LastDelivery()-start
	c.results = len(cl.QueryResults())
	return c
}

// recost re-costs frac of the overlay's links, drawn by rng, by up to
// ±10 % each: in the overlay, which the oracle reads, and in the running
// cluster, as a primary-key replacement at both endpoints.
func recost(t *testing.T, cl *engine.Cluster, o *topology.Overlay, rng *rand.Rand, frac float64) {
	t.Helper()
	for _, i := range rng.Perm(len(o.Links))[:max(int(float64(len(o.Links))*frac), 1)] {
		l := o.Links[i]
		old := l.Cost[topology.Random]
		cost := max(old+(rng.Float64()*2-1)*0.10*old, 0.01)
		if cost == old {
			// A same-value re-insert would be a duplicate, not an update.
			cost = old * 1.05
		}
		l.Cost[topology.Random] = cost
		for _, e := range [][2]simnet.NodeID{{l.A, l.B}, {l.B, l.A}} {
			if err := cl.Inject(string(e[0]), engine.Insert(programs.LinkFact("link", string(e[0]), string(e[1]), cost))); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// shareSfx are Fig 12's three concurrent queries.
var shareSfx = []linkSet{{"_lat", topology.Latency}, {"_rel", topology.Reliability}, {"_rnd", topology.Random}}

// share is Fig 12: three queries run together, their outbound tuples
// delayed 50 ms, then combined when they differ only in the cost column.
func (w *build) share() {
	var srcs []string
	group, vary := map[string]string{}, map[string][]int{}
	for _, ls := range shareSfx {
		srcs = append(srcs, programs.ShortestPath(ls.sfx))
		group["path"+ls.sfx] = "path"
		vary["path"+ls.sfx] = []int{4}
	}
	batch := variant{name: "batch", opts: aggsel.opts, cc: engine.ClusterConfig{Batch: 0.050}}
	shared := variant{name: "share", opts: aggsel.opts, cc: engine.ClusterConfig{Share: &engine.ShareConfig{Delay: 0.050, Group: group, VaryCols: vary}}}
	for _, ex := range executors[1:] {
		for _, v := range []variant{batch, shared} {
			row := "3q/" + ex.name + "/" + v.name
			prog := program(w.t, w.o, programs.Combine(srcs...), shareSfx)
			w.add(row, w.run(row, ex, v, prog, func(tuples func(string) []val.Tuple) error {
				for _, ls := range shareSfx {
					if err := allPairs(w.o, ls.m, "shortestPath"+ls.sfx)(tuples); err != nil {
						return err
					}
				}
				return nil
			}))
		}
	}
	w.tb.notes = []string{
		"skip 3q/central/*: sharing combines a Cluster's outbound messages, and Central sends none",
		"skip 3q/*/{plain,period}: Fig 12 shares the pruned queries; each query alone is a shortestpath.golden row",
	}
}

// magic is Fig 11 and the §5.1.2 program: query-driven shortest paths
// on hop-count links.
func (w *build) magic() {
	hops := oracle(w.o, topology.HopCount)
	s, d := string(w.o.Nodes[0]), string(w.o.Nodes[len(w.o.Nodes)/2])
	for _, ex := range executors {
		row := "sd/" + ex.name + "/plain"
		prog := program(w.t, w.o, programs.MagicShortestPath(), []linkSet{{"", topology.HopCount}},
			programs.MagicSrcFact(s), programs.MagicDstFact(d))
		w.add(row, w.run(row, ex, plain, prog, func(tuples func(string) []val.Tuple) error {
			return exact(bestCost(answers(tuples("answer"), s), 1, 2, 4, s, d, hops))
		}))
	}
	// Fig 11 at two query counts: No-MS answers every query from the
	// all-pairs fixpoint; MS runs each query on a fresh deployment; MSC
	// keeps one deployment and its caches; MSC-30/MSC-10 draw destinations
	// from the first 30%/10% of the nodes.
	for _, ex := range executors[1:] {
		for _, q := range fig11Queries {
			row := fmt.Sprintf("fig11/%s/no-ms/q%d", ex.name, q)
			prog := program(w.t, w.o, programs.ShortestPath(""), []linkSet{{"", topology.HopCount}})
			queries := w.queries(w.cfg.Seed, q, 1)
			w.add(row, w.run(row, ex, aggsel, prog, func(tuples func(string) []val.Tuple) error {
				for _, qr := range queries {
					if err := exact(bestCost(tuples("shortestPath"), 0, 1, 3, qr[0], qr[1], hops)); err != nil {
						return err
					}
				}
				return nil
			}))
		}
		w.fresh(ex)
		w.cached(ex, "msc", 0, 1)
		w.cached(ex, "msc30", 1, 0.30)
		w.cached(ex, "msc10", 2, 0.10)
	}
	w.tb.notes = append(w.tb.notes,
		"skip sd/*/aggsel: the planner proves no selection of MagicShortestPath prunable, so the row is plain's",
		"skip sd/*/{period,share}: Figs 9/10/12's settings are measured on Figure 1's program",
		"skip fig11/central/*: the cache prune is per node, and Central is one node",
	)
}

// fig11Queries are the two query counts Fig 11's rows are taken at.
var fig11Queries = []int{4, 8}

// queries draws n (src, dst) pairs, destinations from the first dstFrac
// of the node list.
func (w *build) queries(seed int64, n int, dstFrac float64) [][2]string {
	rng := rand.New(rand.NewSource(seed + 77))
	nd := max(int(float64(len(w.o.Nodes))*dstFrac), 1)
	var out [][2]string
	for len(out) < n {
		s, d := w.o.Nodes[rng.Intn(len(w.o.Nodes))], w.o.Nodes[rng.Intn(nd)]
		if s != d {
			out = append(out, [2]string{string(s), string(d)})
		}
	}
	return out
}

// bestCost returns the best cost column c among rows whose s and d
// columns match the query, and the oracle's; it fails if no row answers
// the query or one beats the oracle, which no real path can.
func bestCost(rows []val.Tuple, sc, dc, cc int, s, d string, oracle map[[2]string]float64) (best, want float64, err error) {
	best, want = math.Inf(1), oracle[[2]string{s, d}]
	for _, r := range rows {
		if r.Fields[sc].Addr() == s && r.Fields[dc].Addr() == d {
			best = min(best, r.Fields[cc].Float())
		}
	}
	if math.IsInf(best, 1) || best < want-1e-6 {
		return best, want, fmt.Errorf("query %s->%s: best cost %v, oracle %v", s, d, best, want)
	}
	return best, want, nil
}

// exact is bestCost's check that the best answer is the oracle's.
func exact(best, want float64, err error) error {
	if err == nil && best > want+1e-6 {
		err = fmt.Errorf("best cost %v, oracle %v", best, want)
	}
	return err
}

// answers returns the answer(@N, @S, @D, P, C, SC) rows held at node n.
func answers(rows []val.Tuple, n string) []val.Tuple {
	var at []val.Tuple
	for _, r := range rows {
		if r.Fields[0].Addr() == n {
			at = append(at, r)
		}
	}
	return at
}

// noCache disables the answer cache: the answer returns to the source,
// but nothing is cached and no cache answers.
func noCache(_ *engine.Node, rule string, _ engine.Delta) bool {
	return rule != "ca1" && rule != "hit1"
}

// cachePrune is the engine-level half of query-result caching (§5.2):
// exploration (cs2) stops at a node that already caches a suffix to the
// query's destination, and the cache-hit rule (hit1) fires only for
// arriving exploration, not for a cache row replayed against old
// queries' exploration state.
//
// The prune is approximate, as the paper's caching is. hit1 answers
// prefix + cached suffix, and the cache row is a min over answers that
// may themselves have come from a hit, so a cached suffix can be
// suboptimal; stopping exploration there can then return a route above
// the oracle's cost. The MSC rows therefore note such answers instead
// of failing on them (magic.golden notes one of eight at MSC-30).
func cachePrune(n *engine.Node, rule string, d engine.Delta) bool {
	if rule == "hit1" && d.Tuple.Pred == "cache" {
		return false
	}
	if rule != "cs2" || d.Sign < 0 || d.Tuple.Pred != "pathDst" {
		return true
	}
	qd := d.Tuple.Fields[2]
	probe := val.NewTuple("cache", val.NewAddr(n.ID()), qd, val.Nil)
	e, ok := n.Catalog().Get("cache").Get(probe)
	return !ok || !e.Fields[1].Equal(qd)
}

// fresh is Fig 11's MS: each query on a fresh deployment, counts summed.
func (w *build) fresh(ex executor) {
	hops := oracle(w.o, topology.HopCount)
	var sum counts
	for i, q := range w.queries(w.cfg.Seed, fig11Queries[len(fig11Queries)-1], 1) {
		var c counts
		opts := c.hook(engine.Options{AggSel: true, StrandFilter: noCache, Mode: ex.mode})
		prog := program(w.t, w.o, programs.CachedSourceRoute(), []linkSet{{"", topology.HopCount}}, programs.MagicQueryFact(q[0], q[1]))
		sim, cl := w.deploy(w.o, prog, opts, engine.ClusterConfig{})
		if err := cl.Seed(); err != nil {
			w.t.Fatal(err)
		}
		w.quiesce(sim, "MS query")
		if err := exact(bestCost(answers(cl.Tuples("answer"), q[0]), 1, 2, 4, q[0], q[1], hops)); err != nil {
			w.t.Errorf("fig11/%s/ms: %v", ex.name, err)
		}
		c.wire(sim)
		c.results = len(cl.QueryResults())
		sum.add(c)
		for _, n := range fig11Queries {
			if i+1 == n {
				w.add(fmt.Sprintf("fig11/%s/ms/q%d", ex.name, n), sum)
			}
		}
	}
}

// cached is Fig 11's MSC: one deployment answers the queries in turn,
// keeping its caches; the queries are drawn under seed+off. The cache
// prune can stop exploration at a node whose cached suffix is not yet the
// shortest, so a query's best answer may exceed the oracle's; each row
// notes how many did.
func (w *build) cached(ex executor, name string, off int64, dstFrac float64) {
	hops := oracle(w.o, topology.HopCount)
	var c counts
	opts := c.hook(engine.Options{AggSel: true, StrandFilter: cachePrune, Mode: ex.mode})
	prog := program(w.t, w.o, programs.CachedSourceRoute(), []linkSet{{"", topology.HopCount}})
	sim, cl := w.deploy(w.o, prog, opts, engine.ClusterConfig{})
	if err := cl.Seed(); err != nil {
		w.t.Fatal(err)
	}
	w.quiesce(sim, "MSC seed")
	above := 0
	for i, q := range w.queries(w.cfg.Seed+off, fig11Queries[len(fig11Queries)-1], dstFrac) {
		if err := cl.Inject(q[0], engine.Insert(programs.MagicQueryFact(q[0], q[1]))); err != nil {
			w.t.Fatal(err)
		}
		w.quiesce(sim, "MSC query")
		best, want, err := bestCost(answers(cl.Tuples("answer"), q[0]), 1, 2, 4, q[0], q[1], hops)
		if err != nil {
			w.t.Errorf("fig11/%s/%s: %v", ex.name, name, err)
		} else if best > want {
			above++
		}
		for _, n := range fig11Queries {
			if i+1 == n {
				c.wire(sim)
				c.results = len(cl.QueryResults())
				row := fmt.Sprintf("fig11/%s/%s/q%d", ex.name, name, n)
				w.add(row, c)
				if above > 0 {
					w.tb.notes = append(w.tb.notes, fmt.Sprintf("note %s: %d of %d best answers above the oracle", row, above, n))
				}
			}
		}
	}
}

// protocols runs every conform protocol to its oracle-clean fixpoint at
// the suite's tier-1 scale.
func (w *build) protocols() {
	type proto struct {
		name string
		run  func(eng engine.Options, c *counts) error
	}
	for _, p := range []proto{
		{"chord", w.chord}, {"gossip", w.gossip}, {"linkstate", w.linkState},
		{"pathvector", w.pathVector}, {"multicast", w.multicast}, {"dsr", w.dsr}, {"magic", w.magicRun},
	} {
		for _, ex := range executors[1:] {
			if p.name == "chord" && ex.mode == engine.SN {
				continue
			}
			for _, v := range []variant{plain, aggsel} {
				row := p.name + "/" + ex.name + "/" + v.name
				var c counts
				eng := c.hook(v.opts)
				eng.Mode = ex.mode
				if err := p.run(eng, &c); err != nil {
					w.t.Errorf("%s: %v", row, err)
				}
				w.add(row, c)
			}
		}
	}
	w.tb.notes = []string{
		"skip */central/*: the harnesses deploy on simnet, with timers for Chord and gossip",
		"skip chord/sn/*: under SN the ring never forms: a round retracts bestSucc's old argmin before storing it (ROADMAP item 15)",
		"skip */*/{period,share}: the harnesses fix ClusterConfig, with no flush period and no sharing",
		"skip */*/magic: dsr and magic are the query-driven rows",
	}
}

// settle advances a timer-driven run in one-second steps until check is
// clean, failing at the deadline.
func settle(sim *simnet.Sim, deadline float64, check func() []string) error {
	for {
		errs := check()
		if len(errs) == 0 {
			return nil
		}
		if sim.Now() >= deadline {
			return fmt.Errorf("not clean by t=%.1f: %s (+%d more)", sim.Now(), errs[0], len(errs)-1)
		}
		sim.Run(sim.Now() + 1)
	}
}

// timed records a timer-driven run's traffic at its clean time.
func timed(c *counts, net *conform.Net) {
	c.msgs, c.bytes, c.vtime = net.Sim.Messages(), net.Sim.Bytes(), net.Sim.Now()
	c.results = len(net.Cluster.QueryResults())
}

// chord forms a ring from its landmark, then resolves eight lookups.
func (w *build) chord(eng engine.Options, c *counts) error {
	o := conform.DefaultChordOpts(w.cfg.Seed)
	o.Nodes, o.Reserve, o.Engine = 16, 0, eng
	r, err := conform.NewChordRun(o)
	if err != nil {
		return err
	}
	r.RunUntil(10)
	if err := settle(r.Net.Sim, 120, r.CheckRing); err != nil {
		return err
	}
	samples := r.InjectLookups(8)
	for attempt := 0; len(samples) > 0; attempt++ {
		if attempt == 5 {
			return fmt.Errorf("%d lookups unanswered", len(samples))
		}
		r.RunUntil(r.Net.Sim.Now() + 2)
		failed, errs := r.CheckLookups(samples)
		if len(errs) > 0 {
			return fmt.Errorf("wrong lookup: %s", errs[0])
		}
		samples = samples[:0]
		for _, s := range failed {
			samples = append(samples, r.Reinject(s))
		}
	}
	timed(c, r.Net)
	return nil
}

// gossip runs rounds until every live node holds a fresh counter for
// every other.
func (w *build) gossip(eng engine.Options, c *counts) error {
	o := conform.DefaultGossipOpts(w.cfg.Seed)
	o.Nodes, o.Engine = 16, eng
	r, err := conform.NewGossipRun(o)
	if err != nil {
		return err
	}
	r.RunRounds(r.ConvergeRounds())
	for extra := 0; len(r.CheckFresh(nil)) > 0; extra++ {
		if extra == 5 {
			return fmt.Errorf("view not fresh %d rounds past the infection bound", extra)
		}
		r.RunRounds(1)
	}
	timed(c, r.Net)
	return nil
}

// clean quiesces a hard-state run and checks its oracle.
func (w *build) clean(net *conform.Net, c *counts, check func() []string) error {
	w.quiesce(net.Sim, "protocol")
	if errs := check(); len(errs) > 0 {
		return fmt.Errorf("%s (+%d more)", errs[0], len(errs)-1)
	}
	c.wire(net.Sim)
	c.results = len(net.Cluster.QueryResults())
	return nil
}

func (w *build) linkState(eng engine.Options, c *counts) error {
	o := conform.DefaultLinkStateOpts(w.cfg.Seed)
	o.Nodes, o.Chords, o.Engine = 10, 4, eng
	r, err := conform.NewLinkStateRun(o)
	if err != nil {
		return err
	}
	return w.clean(r.Net, c, r.CheckRoutes)
}

func (w *build) pathVector(eng engine.Options, c *counts) error {
	o := conform.DefaultPathVectorOpts(w.cfg.Seed)
	o.Nodes, o.Chords, o.Engine = 10, 4, eng
	r, err := conform.NewPathVectorRun(o)
	if err != nil {
		return err
	}
	return w.clean(r.Net, c, r.CheckPaths)
}

func (w *build) multicast(eng engine.Options, c *counts) error {
	o := conform.DefaultMulticastOpts(w.cfg.Seed)
	o.Nodes, o.Chords, o.Members, o.Engine = 12, 4, 4, eng
	r, err := conform.NewMulticastRun(o)
	if err != nil {
		return err
	}
	return w.clean(r.Net, c, r.CheckTree)
}

// dsr asks two queries in turn; the second can answer from caches the
// first warmed.
func (w *build) dsr(eng engine.Options, c *counts) error {
	o := conform.DefaultDSROpts(w.cfg.Seed)
	o.Engine = eng
	r, err := conform.NewDSRRun(o)
	if err != nil {
		return err
	}
	far := len(r.Names) / 2
	r.Query(r.Names[0], r.Names[far])
	w.quiesce(r.Net.Sim, "dsr query")
	r.Query(r.Names[1], r.Names[far])
	return w.clean(r.Net, c, r.CheckAnswers)
}

// magicRun asks three queries in turn, each checked at its source.
func (w *build) magicRun(eng engine.Options, c *counts) error {
	o := conform.DefaultMagicOpts(w.cfg.Seed)
	o.Nodes, o.Chords, o.Engine = 10, 4, eng
	r, err := conform.NewMagicRun(o)
	if err != nil {
		return err
	}
	n := len(r.Names)
	for _, q := range [][2]int{{0, n / 2}, {1, n/2 + 1}, {n / 2, 0}} {
		src, dst := r.Names[q[0]], r.Names[q[1]]
		r.Ask(src, dst)
		if err := w.clean(r.Net, c, func() []string { return r.CheckAnswer(src, dst) }); err != nil {
			return err
		}
	}
	return nil
}

// TestAggSelImmediate is Figs 7/8: aggregate selections send fewer
// messages under every metric than the unpruned program, and Random is
// the costliest metric.
func TestAggSelImmediate(t *testing.T) {
	w := rows(t)
	pl := w.row(t, "baseline:hop/psn/plain")
	for _, ex := range executors[1:] {
		rnd := w.row(t, "shortestpath:rnd/"+ex.name+"/aggsel")
		for _, m := range topology.AllMetrics() {
			p := metricName[m] + "/" + ex.name
			ag := w.row(t, "shortestpath:"+p+"/aggsel")
			if ag.msgs >= pl.msgs {
				t.Errorf("Fig 7: %s: aggsel sends %d messages, plain %d", p, ag.msgs, pl.msgs)
			}
			if ag.bytes > rnd.bytes {
				t.Errorf("Fig 7: %s/aggsel sends %d bytes, more than Random's %d", p, ag.bytes, rnd.bytes)
			}
		}
	}
}

// TestAggSelPeriodicReducesBandwidth is Figs 9/10: periodic selections
// send fewer bytes than immediate ones.
func TestAggSelPeriodicReducesBandwidth(t *testing.T) {
	w := rows(t)
	for _, ex := range executors[1:] {
		for _, m := range topology.AllMetrics() {
			p := metricName[m] + "/" + ex.name
			ag, pe := w.row(t, "shortestpath:"+p+"/aggsel"), w.row(t, "shortestpath:"+p+"/period")
			if pe.bytes >= ag.bytes {
				t.Errorf("Fig 9: %s: period sends %d bytes, immediate aggsel %d", p, pe.bytes, ag.bytes)
			}
		}
	}
}

// TestMagicExperiment is Fig 11: MS grows with the query count, MSC never
// costs more than MS, restricting destinations cheapens caching, and
// No-MS is flat.
func TestMagicExperiment(t *testing.T) {
	w := rows(t)
	lo, hi := fmt.Sprintf("/q%d", fig11Queries[0]), fmt.Sprintf("/q%d", fig11Queries[1])
	for _, ex := range executors[1:] {
		f := "magic:fig11/" + ex.name + "/"
		if a, b := w.row(t, f+"ms"+lo), w.row(t, f+"ms"+hi); b.bytes <= a.bytes {
			t.Errorf("Fig 11: %s: MS does not grow: %d bytes at %s, %d at %s", ex.name, a.bytes, lo, b.bytes, hi)
		}
		for _, q := range []string{lo, hi} {
			if msc, ms := w.row(t, f+"msc"+q), w.row(t, f+"ms"+q); msc.bytes > ms.bytes {
				t.Errorf("Fig 11: %s%s: MSC %d bytes > MS %d", ex.name, q, msc.bytes, ms.bytes)
			}
			if m10, m30 := w.row(t, f+"msc10"+q), w.row(t, f+"msc30"+q); m10.bytes > m30.bytes {
				t.Errorf("Fig 11: %s%s: MSC-10 %d bytes > MSC-30 %d", ex.name, q, m10.bytes, m30.bytes)
			}
		}
		if a, b := w.row(t, f+"no-ms"+lo), w.row(t, f+"no-ms"+hi); a != b || a.bytes == 0 {
			t.Errorf("Fig 11: %s: No-MS is not flat: %+v at %s, %+v at %s", ex.name, a, lo, b, hi)
		}
	}
}

// TestShareExperiment is Fig 12: sharing sends fewer bytes than batching
// alone.
func TestShareExperiment(t *testing.T) {
	w := rows(t)
	for _, ex := range executors[1:] {
		if sh, ba := w.row(t, "share:3q/"+ex.name+"/share"), w.row(t, "share:3q/"+ex.name+"/batch"); sh.bytes >= ba.bytes {
			t.Errorf("Fig 12: %s: share sends %d bytes, batch %d", ex.name, sh.bytes, ba.bytes)
		}
	}
}

// TestUpdateExperiment is Figs 13/14: a burst re-converges for less than
// the cold start.
func TestUpdateExperiment(t *testing.T) {
	w := rows(t)
	cold, b := w.row(t, "dv:rnd/psn/aggsel"), w.row(t, "dv:rnd/psn/aggsel/burst")
	if b.derivs >= cold.derivs || b.msgs >= cold.msgs || b.bytes >= cold.bytes || b.vtime >= cold.vtime {
		t.Errorf("Fig 13: a burst costs %+v, the cold start %+v", b, cold)
	}
}

// TestDVBurstExactCounts pins the derivations, retractions, messages and
// bytes of dv.golden's burst row, whose fixpoint burst checks against the
// oracle. Before replacements folded in the queue and in paired walks,
// the same burst read 1 521, 776, 254 and 45 094.
func TestDVBurstExactCounts(t *testing.T) {
	b := rows(t).row(t, "dv:rnd/psn/aggsel/burst")
	got, want := [4]int64{b.derivs, b.retracts, b.msgs, b.bytes}, [4]int64{876, 757, 254, 43484}
	if got != want {
		t.Errorf("one burst: derivations, retractions, messages, bytes = %v, want %v", got, want)
	}
}

// TestInterleavedUpdates: link-cost bursts that arrive before the last
// one has re-converged — every 0.5 s and 2 s in turn over 8 s, a tenth
// of the links re-costed by up to ±10 % each — still leave the
// distance-vector program's fixpoint at the oracle's costs.
func TestInterleavedUpdates(t *testing.T) {
	w := &build{work: &work{cfg: Small()}, t: t}
	o := BuildOverlay(w.cfg)
	w.o = o
	prog := program(t, o, programs.ShortestPathDV(""), []linkSet{{"", topology.Random}})
	sim, cl := w.deploy(o, prog, aggsel.opts, engine.ClusterConfig{})
	if err := cl.Seed(); err != nil {
		t.Fatal(err)
	}
	w.quiesce(sim, "cold start")
	rng := rand.New(rand.NewSource(w.cfg.Seed + 13))
	bursts, start := 0, sim.Now()
	for at, i := start, 0; ; i++ {
		if at += []float64{0.5, 2}[i%2]; at > start+8 {
			break
		}
		sim.Run(at)
		recost(t, cl, o, rng, 0.10)
		bursts++
	}
	w.quiesce(sim, "bursts")
	if bursts < 3 {
		t.Fatalf("%d bursts", bursts)
	}
	if err := allPairs(o, topology.Random, "shortestPath")(cl.Tuples); err != nil {
		t.Errorf("after %d bursts: %v", bursts, err)
	}
}

// TestHybridAnalysis is §5.3's cost-based rewrite on the experiment
// overlay: over random source–destination pairs, the optimal split of a
// query into a top-down search from the source and a bottom-up one from
// the destination costs on average no more than either pure search.
func TestHybridAnalysis(t *testing.T) {
	cfg := Small()
	o := BuildOverlay(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed + 55))
	var td, bu, hyb, wins int
	for pairs := 0; pairs < 40; {
		s, d := o.Nodes[rng.Intn(len(o.Nodes))], o.Nodes[rng.Intn(len(o.Nodes))]
		if s == d {
			continue
		}
		pairs++
		dist := o.HopDistance(s, d)
		rs, rd, h := o.HybridSplit(s, d)
		if rs+rd != dist {
			t.Errorf("%s->%s: split radii %d+%d, distance %d", s, d, rs, rd, dist)
		}
		ts, bs := o.Neighborhood(s, dist), o.Neighborhood(d, dist)
		td, bu, hyb = td+ts, bu+bs, hyb+h
		if h < ts && h < bs {
			wins++
		}
	}
	if hyb > td || hyb > bu {
		t.Errorf("over 40 pairs the hybrid split costs %d, top-down %d, bottom-up %d", hyb, td, bu)
	}
	t.Logf("the hybrid split beats both pure searches on %d of 40 pairs", wins)
}
