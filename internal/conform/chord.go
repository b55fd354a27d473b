package conform

import (
	"fmt"
	"sort"

	"ndlog/internal/engine"
	"ndlog/internal/funcs"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// ChordOpts configures a Chord conformance run.
type ChordOpts struct {
	Seed       int64
	Nodes      int     // initial ring size (including the landmark)
	Reserve    int     // extra pre-registered nodes that join during churn
	Latency    float64 // per-link latency (seconds)
	Jitter     float64 // extra random per-message delay
	Loss       float64 // per-message drop probability
	StabEvery  float64 // stabilization period
	FingStart  float64 // when fixFingers begins (after ring bring-up)
	FingEvery  float64 // fixFingers period
	SweepEvery float64 // soft-state expiry period
	JoinGap    float64 // stagger between successive bring-up joins
	FingerExps []int   // finger exponents k (targets id + 2^k)
	Cfg        programs.ChordConfig
	// Engine overrides the cluster's evaluation options (hooks are
	// layered, see NewNetOpts) — how the optimizer-measurement rows run
	// Chord under aggregate selections.
	Engine engine.Options
}

// DefaultChordOpts is the acceptance-scale configuration: a 100-node
// ring plus reserve joiners for the churn episode.
func DefaultChordOpts(seed int64) ChordOpts {
	return ChordOpts{
		Seed:       seed,
		Nodes:      100,
		Reserve:    8,
		Latency:    0.01,
		Jitter:     0.005,
		Loss:       0,
		StabEvery:  2,
		FingStart:  20,
		FingEvery:  2.5,
		SweepEvery: 0.5,
		JoinGap:    0.15,
		FingerExps: []int{26, 27, 28, 29, 30, 31},
		Cfg:        programs.DefaultChordConfig(),
	}
}

// ChordRun is a deployed Chord instance under harness control. All
// Nodes+Reserve simulator nodes and their full-mesh links exist from
// t=0 (an unjoined node is inert: with no node() fact, no rule fires
// there); joining is injecting the per-node base facts, leaving is
// isolating the node and letting its soft-state footprint expire.
type ChordRun struct {
	Net      *Net
	Opts     ChordOpts
	Names    []string
	Landmark string

	live  map[string]bool
	ids   map[string]int64 // name -> ring identifier, as f_id computes it
	round int64            // rising tick counter shared by all tick kinds
}

// NewChordRun parses, deploys, and wires the drivers; the ring forms
// once the simulator runs. The landmark (Names[0]) is live from t=0 as
// its own successor; the remaining initial nodes join staggered JoinGap
// apart starting at t=0.2.
func NewChordRun(o ChordOpts) (*ChordRun, error) {
	names := nodeNames("c", o.Nodes+o.Reserve)
	net, err := NewNetOpts(o.Seed, programs.Chord(o.Cfg), names, o.Engine, engine.ClusterConfig{ProcDelay: 0.001})
	if err != nil {
		return nil, err
	}
	if err := net.FullMesh(o.Latency, o.Jitter, o.Loss); err != nil {
		return nil, err
	}
	r := &ChordRun{
		Net:      net,
		Opts:     o,
		Names:    names,
		Landmark: names[0],
		live:     map[string]bool{},
		ids:      map[string]int64{},
	}
	seen := map[int64]string{}
	for _, n := range names {
		id := funcs.RingID(val.NewAddr(n))
		if prev, dup := seen[id]; dup {
			return nil, fmt.Errorf("conform: ring id collision %s / %s", prev, n)
		}
		seen[id] = n
		r.ids[n] = id
		// The mesh is the addressing substrate, not a routing table:
		// conn rows (including self) exist for everyone up front.
		for _, p := range names {
			net.Inject(n, engine.Insert(programs.ConnFact(n, p)))
		}
	}

	// Bootstrap the landmark: live, and its own successor.
	for _, f := range programs.ChordNodeFacts(r.Landmark, r.Landmark, o.FingerExps) {
		net.Inject(r.Landmark, engine.Insert(f))
	}
	net.Inject(r.Landmark, engine.Insert(
		programs.ChordSelfSuccFact(r.Landmark, r.ids[r.Landmark])))
	r.live[r.Landmark] = true

	// Staggered bring-up of the rest of the initial ring.
	for i, n := range names[1:o.Nodes] {
		n := n
		net.Sim.ScheduleFunc(0.2+float64(i)*o.JoinGap, func(float64) { r.Join(n) })
	}

	// Drivers. The stabilization driver doubles as the join-retry loop:
	// a live node with no successor yet (fresh joiner, or orphaned by
	// churn/loss) gets a joinTick instead of a stab tick.
	net.Every(0.5, o.StabEvery, func(float64) {
		r.round++
		for _, n := range r.liveNames() {
			if len(r.Net.Tuples(n, "bestSucc")) == 0 {
				net.Inject(n, engine.Insert(programs.JoinTick(n, r.round)))
			} else {
				net.Inject(n, engine.Insert(programs.StabTick(n, r.round)))
			}
		}
	})
	net.Every(o.FingStart, o.FingEvery, func(float64) {
		r.round++
		for _, n := range r.liveNames() {
			net.Inject(n, engine.Insert(programs.FingTick(n, r.round)))
		}
	})
	net.SweepEvery(o.SweepEvery)
	return r, nil
}

// Join makes a registered node live: inject its base facts (node,
// landmark pointer, finger exponents). The next stabilization tick
// issues its join lookup.
func (r *ChordRun) Join(name string) {
	for _, f := range programs.ChordNodeFacts(name, r.Landmark, r.Opts.FingerExps) {
		r.Net.Inject(name, engine.Insert(f))
	}
	r.live[name] = true
}

// Leave fails a node: isolate it in the simulator (messages to and from
// it vanish) and stop ticking it. Its footprint in other nodes' tables
// ages out via soft-state TTLs — there is no leave message, matching
// the protocol's fail-stop model.
func (r *ChordRun) Leave(name string) {
	if name == r.Landmark {
		panic("conform: cannot fail the landmark (join anchor)")
	}
	delete(r.live, name)
	r.Net.Sim.Isolate(simnet.NodeID(name))
}

// Churn schedules a seeded churn episode on [start, start+dur]: joins
// joins from the reserve pool and leaves failures of random live
// non-landmark nodes, interleaved and evenly staggered.
func (r *ChordRun) Churn(start, dur float64, joins, leaves int) {
	if joins > r.Opts.Reserve {
		panic("conform: churn joins exceed reserve pool")
	}
	kinds := make([]bool, 0, joins+leaves) // true = join
	for j, l := joins, leaves; j > 0 || l > 0; {
		if j > 0 {
			kinds = append(kinds, true)
			j--
		}
		if l > 0 {
			kinds = append(kinds, false)
			l--
		}
	}
	gap := dur / float64(len(kinds))
	ji := 0
	for i, isJoin := range kinds {
		at := start + float64(i)*gap
		if isJoin {
			n := r.Names[r.Opts.Nodes+ji]
			ji++
			r.Net.Sim.ScheduleFunc(at, func(float64) { r.Join(n) })
		} else {
			r.Net.Sim.ScheduleFunc(at, func(float64) {
				if v := r.victim(); v != "" {
					r.Leave(v)
				}
			})
		}
	}
}

// victim picks a random live non-landmark node. Adjacent failures in
// quick succession can exhaust a depth-2 successor list, but that is a
// recoverable state here, not a harness bug: the stabilization driver
// turns an empty bestSucc back into a joinTick, so an orphaned node
// rejoins through the landmark.
func (r *ChordRun) victim() string {
	names := r.liveNames()
	if len(names) <= 3 {
		return ""
	}
	for try := 0; try < 20; try++ {
		n := names[r.Net.Rng.Intn(len(names))]
		if n != r.Landmark {
			return n
		}
	}
	return ""
}

// liveNames returns the live set sorted by name (deterministic order
// for tick injection and rng draws).
func (r *ChordRun) liveNames() []string {
	out := make([]string, 0, len(r.live))
	for n := range r.live {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ringOrder returns the live ring ids in ascending order.
func (r *ChordRun) ringOrder() []int64 {
	ids := make([]int64, 0, len(r.live))
	for n := range r.live {
		ids = append(ids, r.ids[n])
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// TrueSuccessor is the oracle: the live node owning key k — the first
// live identifier clockwise at or after k, wrapping at the top of the
// ring. This is computed from the harness's membership record alone,
// independent of every protocol table.
func (r *ChordRun) TrueSuccessor(k int64) string {
	ids := r.ringOrder()
	if len(ids) == 0 {
		return ""
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= k })
	if i == len(ids) {
		i = 0
	}
	return r.nameOf(ids[i])
}

// TrueSuccessorOf is the ring invariant's right-hand side: the live
// node clockwise-next after name.
func (r *ChordRun) TrueSuccessorOf(name string) string {
	next := (r.ids[name] + 1) % funcs.RingSize
	return r.TrueSuccessor(next)
}

func (r *ChordRun) nameOf(id int64) string {
	for n, i := range r.ids {
		if i == id && r.live[n] {
			return n
		}
	}
	return ""
}

// CheckRing verifies the ring invariant at every live node: exactly one
// bestSucc row, pointing at the oracle's true successor. It returns one
// message per violation.
func (r *ChordRun) CheckRing() []string {
	var errs []string
	for _, n := range r.liveNames() {
		want := r.TrueSuccessorOf(n)
		rows := r.Net.Tuples(n, "bestSucc")
		switch {
		case len(rows) == 0:
			errs = append(errs, fmt.Sprintf("%s: no bestSucc (want %s)", n, want))
		case len(rows) > 1:
			errs = append(errs, fmt.Sprintf("%s: %d bestSucc rows", n, len(rows)))
		default:
			if got := rows[0].Fields[1].Addr(); got != want {
				errs = append(errs, fmt.Sprintf("%s: bestSucc %s, want %s", n, got, want))
			}
		}
	}
	return errs
}

// LookupSample is one injected lookup and where to collect its answer.
type LookupSample struct {
	Node  string
	Key   int64
	Round int64
}

// InjectLookups issues count lookups for random keys at random live
// nodes, at the current virtual time. Answers arrive as lookupRes rows
// at the issuing node within a few hops.
func (r *ChordRun) InjectLookups(count int) []LookupSample {
	names := r.liveNames()
	out := make([]LookupSample, 0, count)
	for i := 0; i < count; i++ {
		r.round++
		s := LookupSample{
			Node:  names[r.Net.Rng.Intn(len(names))],
			Key:   r.Net.Rng.Int63n(funcs.RingSize),
			Round: r.round,
		}
		r.Net.Inject(s.Node, engine.Insert(
			programs.LookupFact(s.Node, s.Key, s.Round)))
		out = append(out, s)
	}
	return out
}

// Reinject reissues a sample under a fresh round number (a retry after
// loss or a stale-finger forward into a dead node) and returns the
// replacement sample.
func (r *ChordRun) Reinject(s LookupSample) LookupSample {
	r.round++
	s.Round = r.round
	r.Net.Inject(s.Node, engine.Insert(
		programs.LookupFact(s.Node, s.Key, s.Round)))
	return s
}

// CheckLookups verifies each sample's answer against the oracle. A
// sample fails if no lookupRes row for its round is present (lost or
// still in flight) or if the resolved successor is not the oracle's.
// Failures come back for the caller to retry or report.
func (r *ChordRun) CheckLookups(samples []LookupSample) (failed []LookupSample, errs []string) {
	for _, s := range samples {
		want := r.TrueSuccessor(s.Key)
		found := false
		for _, row := range r.Net.Tuples(s.Node, "lookupRes") {
			// lookupRes(@R, K, @S, SI, Q)
			if row.Fields[1].Int() != s.Key || row.Fields[4].Int() != s.Round {
				continue
			}
			found = true
			if got := row.Fields[2].Addr(); got != want {
				errs = append(errs, fmt.Sprintf(
					"lookup %d at %s: resolved %s, oracle %s", s.Key, s.Node, got, want))
			}
		}
		if !found {
			failed = append(failed, s)
		}
	}
	return failed, errs
}

// RunUntil advances virtual time.
func (r *ChordRun) RunUntil(t float64) { r.Net.Sim.Run(t) }
