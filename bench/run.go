package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// workload is one named input set and the function that runs it.
type workload struct {
	name string
	why  string
	run  func(c *ctx) error
}

// workloads lists the seven in reporting order; the why lines are what
// BENCHMARK.json records.
var workloads = []workload{
	{"sp100-sim", "paper Fig 7/8 cold start on the simulator: strands, aggregates, wire codec and event queue all on the path", spSim},
	{"sp100-central", "same joins on one node with no codec, network or partitioning: a wire or simnet change must not move it", spCentral},
	{"sp100-par", "the only multi-core executor: exposes pool and interner contention the single-threaded workloads bypass", spParallel},
	{"dv100-updates-sim", "paper Fig 13/14 link-cost bursts: deletions, count-algorithm retraction and aggregate re-minimisation", dvUpdatesSim},
	{"chord32-sim", "the only soft-state, timer-driven workload: TTL refresh and expiry, ring builtins, simnet timers", chordSim},
	{"dv20-updates-udp", "real loopback sockets, goroutines, per-node locks and idle-window quiescence dominate; the engine does many small drains", dvUpdatesUDP},
	{"dv20-updates-udp-durable", "write-heavy data plane: WAL append and fsync-before-wire on every op, then restart-to-warm recovery", dvUpdatesDurable},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ctx is one run of one workload: its inputs' seeds, its time budget,
// and the per-repetition samples the reported medians are taken over.
type ctx struct {
	name    string
	seconds float64
	smoke   bool
	traced  bool

	// updates drives the update sequences (seed+13, as
	// experiments.RunUpdates does); the program under test receives
	// nothing but generated facts.
	updates *rand.Rand

	// tr is the current repetition's tracer on the traced run, nil on
	// the untraced one. spans keeps every repetition's for -trace-out.
	tr    *tracer
	spans []span

	start     time.Time
	samples   map[string][]float64
	attempted int
	failed    int
	quiet     bool // count failed checks without naming them
}

func newCtx(w workload, seed int64, seconds float64, smoke, traced bool) *ctx {
	return &ctx{
		name: w.name, seconds: seconds, smoke: smoke, traced: traced,
		updates: rand.New(rand.NewSource(seed + 13)),
		samples: map[string][]float64{},
	}
}

// add records one repetition's value of a metric.
func (c *ctx) add(name string, v float64) { c.samples[name] = append(c.samples[name], v) }

// check counts one oracle comparison or timed op; the first few
// failures of a run are named on standard error.
func (c *ctx) check(ok bool, what string) {
	c.attempted++
	if ok {
		return
	}
	if c.failed++; c.failed <= 5 && !c.quiet {
		fmt.Fprintf(os.Stderr, "%s: FAILED check: %s\n", c.name, what)
	}
}

// cycles runs rep in whole cycles of pool repetitions until the time
// budget is spent, assuming the next cycle costs what the last one did;
// it always runs one. A workload whose inputs come from a fixed pool
// thereby gives every pool member equal weight in every run, whatever
// the machine's speed. The traced run attributes, it does not gate, and
// the smoke scale only checks shape: both stop after any repetition. On
// the traced run every repetition gets a fresh tracer.
func (c *ctx) cycles(pool int, rep func(i int) error) error {
	if c.traced || c.smoke {
		pool = 1
	}
	for i := 0; ; {
		t0 := time.Now()
		for end := i + pool; i < end; i++ {
			if c.traced {
				c.tr = newTracer(c.name, i)
			}
			if err := rep(i); err != nil {
				return fmt.Errorf("%s rep %d: %w", c.name, i, err)
			}
			if c.tr != nil {
				c.spans = append(c.spans, c.tr.spans...)
			}
		}
		last := time.Since(t0)
		if time.Since(c.start)+last > time.Duration(c.seconds*float64(time.Second)) {
			return nil
		}
	}
}

// measure is one reported number.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's output object for one run.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	// Samples counts the repetitions behind each median.
	Samples map[string]int `json:"-"`
}

// runWorkload executes one workload once, traced or not, and folds its
// samples into medians over repetitions.
func runWorkload(w workload, seed int64, seconds float64, smoke, traced bool) (*result, []span, error) {
	c := newCtx(w, seed, seconds, smoke, traced)
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	c.start = time.Now()
	if err := w.run(c); err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	defs := endToEnd
	if traced {
		defs = perLayer
		c.add("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
		c.add("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
		c.add("failed_share", ratio(float64(c.failed), float64(c.attempted)))
	}
	r := &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]measure{}, Samples: map[string]int{}}
	for _, d := range defs {
		xs := c.samples[d.Name]
		v := median(xs)
		if !traced && v == 0 {
			return nil, nil, fmt.Errorf("%s: end-to-end metric %s was not measured", w.name, d.Name)
		}
		r.Metrics[d.Name] = measure{Value: v, Unit: d.Unit}
		r.Samples[d.Name] = len(xs)
	}
	if c.attempted == 0 {
		return nil, nil, fmt.Errorf("%s: nothing was checked", w.name)
	}
	return r, c.spans, nil
}
