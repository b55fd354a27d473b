package conform

import (
	"fmt"
	"math"
	"sort"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
)

// GossipOpts configures an epidemic failure-detector conformance run.
type GossipOpts struct {
	Seed       int64
	Nodes      int
	Latency    float64
	Jitter     float64
	Loss       float64
	RoundEvery float64 // gossip round period: one heartbeat + Fanout pushes per node
	Fanout     int     // pushes per node per round
	SweepEvery float64 // soft-state expiry period
	Cfg        programs.GossipConfig
	// Engine overrides the cluster's evaluation options (see NewNetOpts).
	Engine engine.Options
}

// DefaultGossipOpts runs the program's 1s round with TTLs sized for
// the harness: KnowTTL must outlast the DetectRounds staleness
// threshold, or rows expire while still counting as fresh and row
// lifetime — not counter lag — becomes the binding constraint. The TTLs
// only garbage-collect entries whose counters stopped rising; detection
// is the staleness check.
func DefaultGossipOpts(seed int64) GossipOpts {
	return GossipOpts{
		Seed:       seed,
		Nodes:      48,
		Latency:    0.01,
		Jitter:     0.005,
		Loss:       0,
		RoundEvery: 1,
		Fanout:     2,
		SweepEvery: 0.5,
		Cfg:        programs.GossipConfig{RumorTTL: 6, KnowTTL: 30},
	}
}

// GossipRun drives the push-epidemic failure detector: every round each
// live node heartbeats and pushes its liveness view to Fanout random
// partners. The oracle is the infection model — a fresh rumor reaches
// everyone in O(log n) rounds with high probability, so coverage is
// checked as counter freshness against a 3*log2(n)-round bound.
// Failure detection is heartbeat staleness, not row expiry: a dead
// node's rows lapse only about KnowTTL after the last survivor learned
// its final counter (a forwarded entry carries the sender's remaining
// lifetime), far later than staleness fires. A dead node's counter
// freezes while the shared round counter climbs; once the lag passes
// DetectRounds the node stands detected everywhere, no retraction
// required.
type GossipRun struct {
	Net   *Net
	Opts  GossipOpts
	Names []string

	live    map[string]bool
	counter int64
	round   int64
}

// probeFraction is the share of pushes routed uniformly instead of by
// the live view — enough to re-merge a healed partition within a few
// rounds without noticeably slowing in-view dissemination.
const probeFraction = 0.1

// ConvergeRounds is the infection-model bound the coverage checks use.
func (r *GossipRun) ConvergeRounds() int {
	return int(3*math.Log2(float64(len(r.liveNames())))) + 1
}

// DetectRounds is the staleness threshold: a counter lagging by more
// than this many rounds marks its node failed. It must comfortably
// exceed steady-state dissemination lag (about log2 n rounds) or live
// nodes get falsely detected; three times the infection bound is ample.
func (r *GossipRun) DetectRounds() int { return r.ConvergeRounds() + 3 }

// NewGossipRun deploys the program on a full mesh with conn facts
// everywhere (an unjoined node never heartbeats and is never picked as
// a partner, so it stays silent) and starts the round driver. All
// initial nodes are live from t=0.
func NewGossipRun(o GossipOpts) (*GossipRun, error) {
	names := nodeNames("g", o.Nodes)
	net, err := NewNetOpts(o.Seed, programs.Gossip(o.Cfg), names, o.Engine,
		engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	if err := net.FullMesh(o.Latency, o.Jitter, o.Loss); err != nil {
		return nil, err
	}
	r := &GossipRun{Net: net, Opts: o, Names: names, live: map[string]bool{}}
	for _, n := range names {
		for _, p := range names {
			if n != p {
				net.Inject(n, engine.Insert(programs.ConnFact(n, p)))
			}
		}
		r.live[n] = true
	}
	net.Every(0.1, o.RoundEvery, func(float64) {
		r.round++
		r.counter++
		for _, n := range r.liveNames() {
			net.Inject(n, engine.Insert(programs.HeartbeatFact(n, r.counter)))
			for k := 0; k < o.Fanout; k++ {
				if p := r.partner(n); p != "" {
					net.Inject(n, engine.Insert(programs.PeerFact(n, p, r.round)))
				}
			}
		}
	})
	net.SweepEvery(o.SweepEvery)
	return r, nil
}

// partner draws n's gossip partner from n's own live view — the know
// entries whose counters are still fresh — the way a membership-list
// gossiper stops picking peers it has detected as failed. Routing
// pushes by the protocol's view matters under partition: picking from
// the global live set would waste half of each side's pushes on
// unreachable partners and starve the freshness chains on its own side.
// Before the view bootstraps (a joiner knows nobody), fall back to a
// uniform draw over the live set so the first infection can land.
//
// A small fraction of pushes probe uniformly over the whole membership
// list instead, stale entries included — the rejoin path. Without it a
// healed partition never re-merges: each side detected the other, so
// view-routed pushes would circulate on their own side forever
// (gossip split-brain). Probes to still-dead members just drop.
func (r *GossipRun) partner(n string) string {
	floor := r.counter - int64(r.DetectRounds())
	var cands []string
	if r.Net.Rng.Float64() >= probeFraction {
		for _, x := range r.Names {
			if x == n {
				continue
			}
			if c, ok := r.knowCounter(n, x); ok && c >= floor {
				cands = append(cands, x)
			}
		}
	}
	if len(cands) > 0 {
		return cands[r.Net.Rng.Intn(len(cands))]
	}
	names := r.liveNames()
	if len(names) < 2 {
		return ""
	}
	for {
		p := names[r.Net.Rng.Intn(len(names))]
		if p != n {
			return p
		}
	}
}

// Join makes a registered node live: it starts heartbeating on the next
// round, and existing members may now push to it.
func (r *GossipRun) Join(name string) { r.live[name] = true }

// Fail silences a node: isolated in the simulator and dropped from the
// round driver. No farewell message — its counter just stops rising.
func (r *GossipRun) Fail(name string) {
	delete(r.live, name)
	r.Net.Sim.Isolate(simnet.NodeID(name))
}

// Partition splits the mesh: members can only reach members, the rest
// only the rest. Heal undoes it.
func (r *GossipRun) Partition(members []string) {
	ids := make([]simnet.NodeID, len(members))
	for i, m := range members {
		ids[i] = simnet.NodeID(m)
	}
	r.Net.Sim.Partition(ids...)
}

// Heal lifts all partitions.
func (r *GossipRun) Heal() { r.Net.Sim.Heal() }

func (r *GossipRun) liveNames() []string {
	out := make([]string, 0, len(r.live))
	for n := range r.live {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// knowCounter returns the freshest heartbeat counter node n has heard
// for x.
func (r *GossipRun) knowCounter(n, x string) (int64, bool) {
	for _, row := range r.Net.Tuples(n, "know") {
		// know(@N, @X, C)
		if row.Fields[1].Addr() == x {
			return row.Fields[2].Int(), true
		}
	}
	return 0, false
}

// CheckFresh verifies the liveness view over the given scope (nil means
// all live nodes): every scoped node has heard a counter for every
// other scoped node that lags the shared round counter by at most
// DetectRounds. Returns one message per violation.
func (r *GossipRun) CheckFresh(scope []string) []string {
	if scope == nil {
		scope = r.liveNames()
	}
	floor := r.counter - int64(r.DetectRounds())
	var errs []string
	for _, n := range scope {
		for _, x := range scope {
			c, ok := r.knowCounter(n, x)
			switch {
			case !ok:
				errs = append(errs, fmt.Sprintf("%s does not know %s", n, x))
			case c < floor:
				errs = append(errs, fmt.Sprintf(
					"%s knows %s only at counter %d (floor %d)", n, x, c, floor))
			}
		}
	}
	return errs
}

// CheckDetected verifies that every scoped node sees each dead (or
// partitioned-away) name as failed: either no know entry at all, or one
// whose counter is past the staleness threshold.
func (r *GossipRun) CheckDetected(scope, dead []string) []string {
	if scope == nil {
		scope = r.liveNames()
	}
	floor := r.counter - int64(r.DetectRounds())
	var errs []string
	for _, n := range scope {
		for _, x := range dead {
			if c, ok := r.knowCounter(n, x); ok && c >= floor {
				errs = append(errs, fmt.Sprintf(
					"%s still sees %s as live (counter %d, floor %d)", n, x, c, floor))
			}
		}
	}
	return errs
}

// RunRounds advances virtual time by whole gossip rounds.
func (r *GossipRun) RunRounds(k int) {
	r.Net.Sim.Run(r.Net.Sim.Now() + float64(k)*r.Opts.RoundEvery)
}

// RunUntil advances virtual time.
func (r *GossipRun) RunUntil(t float64) { r.Net.Sim.Run(t) }
