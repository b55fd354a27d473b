package engine

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// Parallel runs one NDlog program across many nodes inside a single
// process, draining independent nodes concurrently on a pool of
// GOMAXPROCS workers, read when NewParallel runs. It is the real-
// concurrency counterpart of the simnet Cluster: no virtual time, no
// modeled link delays — nodes exchange deltas through in-process
// queues and the run converges as fast as the hardware allows. Use it
// for run-to-fixpoint workloads (convergence benchmarks, equivalence
// tests, the CLI's -parallel mode); latency-modeled experiments and
// soft-state timer scenarios stay on the Cluster, whose virtual time
// is single-threaded by construction.
//
// Ownership model. Each node is owned by exactly one worker at a time:
// a node is either idle, or scheduled on the ready queue, and the
// worker that dequeues it is its sole owner until it goes idle again.
// Inbound deltas land in a per-node inbox (mutex-guarded MPSC);
// delivering to an idle node schedules it, delivering to a scheduled
// or running node just grows the inbox, which the owner re-checks
// before idling — so no delivery is ever lost and no node runs on two
// workers. Workers therefore need no locks around Push/Drain, and all
// single-threaded engine invariants hold per node.
//
// Tuples cross nodes by reference (no wire encode/decode): tuples are
// immutable, so the array a head was instantiated into at one node is
// the one the receiving node's table stores. That is why AddNode marks
// its nodes byRef: an insertion bound for another node keeps its exact
// array, where an encoding driver's node carves it (DESIGN.md §3).
//
// Quiescence is exact: a pending counter tracks scheduled-or-running
// nodes, every delivery happens from a counted worker (or from seeding
// before the wait), and the last worker to idle its node observes the
// counter hit zero — at that instant every inbox is empty and every
// queue drained, which is the distributed fixpoint.
type Parallel struct {
	prog    *Program
	opts    Options
	workers int
	nodes   map[string]*pnode
	order   []string

	ready   chan *pnode
	pending atomic.Int64
	quiet   chan struct{}

	undeliverable atomic.Int64
	ran           bool
}

// pnode pairs a node with its inbox and scheduling state.
type pnode struct {
	n  *Node
	mu sync.Mutex
	// inbox holds delivered-but-not-yet-pushed deltas (MPSC: any worker
	// appends under mu; only the owner drains it).
	inbox []Delta
	// state is pnIdle or pnScheduled, CAS-guarded: the idle→scheduled
	// transition is what enqueues the node, exactly once.
	state atomic.Int32
}

const (
	pnIdle int32 = iota
	pnScheduled
)

// NewParallel compiles prog for in-process parallel evaluation. Nodes
// must be added with AddNode before Run. Under SN each node's rounds are
// local iterations: there is no global iteration barrier across nodes.
func NewParallel(prog *ast.Program, opts Options) (*Parallel, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return &Parallel{
		prog:    p,
		opts:    opts,
		workers: runtime.GOMAXPROCS(0),
		nodes:   map[string]*pnode{},
		quiet:   make(chan struct{}, 1),
	}, nil
}

// AddNode registers a node runtime. Each node's evaluation stays
// sequential (one worker owns it at a time), so per-node hooks work
// unchanged.
func (p *Parallel) AddNode(id string) *Node {
	n := p.prog.NewNode(id, p.opts)
	n.byRef = true
	pn := &pnode{n: n}
	p.nodes[id] = pn
	p.order = append(p.order, id)
	return n
}

// Node returns the runtime for a node ID, or nil.
func (p *Parallel) Node(id string) *Node {
	if pn := p.nodes[id]; pn != nil {
		return pn.n
	}
	return nil
}

// Nodes returns all node IDs in sorted order.
func (p *Parallel) Nodes() []string {
	out := append([]string(nil), p.order...)
	sort.Strings(out)
	return out
}

// Workers returns the worker-pool size: GOMAXPROCS when NewParallel
// ran.
func (p *Parallel) Workers() int { return p.workers }

// Undeliverable counts deltas routed to destinations with no node.
func (p *Parallel) Undeliverable() int { return int(p.undeliverable.Load()) }

// Netting sums the nodes' replacement-netting counters. Call after Run
// returns.
func (p *Parallel) Netting() Netting {
	var sum Netting
	for _, pn := range p.nodes {
		sum.Add(pn.n.netting)
	}
	return sum
}

// Inject queues a delta at a node before Run (seeding beyond the
// program's base facts, e.g. randomized workloads).
func (p *Parallel) Inject(nodeID string, d Delta) error {
	if p.ran {
		return fmt.Errorf("engine: parallel executor already ran")
	}
	pn, ok := p.nodes[nodeID]
	if !ok {
		return fmt.Errorf("engine: inject into unknown node %q", nodeID)
	}
	pn.inbox = append(pn.inbox, d)
	return nil
}

// Run seeds the program's base facts at their home nodes and drives
// the fleet to quiescence. One-shot: a Parallel executor runs once.
func (p *Parallel) Run() error {
	if p.ran {
		return fmt.Errorf("engine: parallel executor already ran")
	}
	p.ran = true
	for _, f := range p.prog.source.Facts {
		pn, ok := p.nodes[f.Loc()]
		if !ok {
			return fmt.Errorf("engine: fact %v homed at unknown node %q", f, f.Loc())
		}
		pn.inbox = append(pn.inbox, Insert(f))
	}
	// The ready queue holds each node at most once (the idle→scheduled
	// CAS), so a buffer of len(nodes) means senders never block.
	p.ready = make(chan *pnode, len(p.nodes)+1)
	seeded := 0
	for _, id := range p.order {
		pn := p.nodes[id]
		if len(pn.inbox) > 0 && pn.state.CompareAndSwap(pnIdle, pnScheduled) {
			p.pending.Add(1)
			p.ready <- pn
			seeded++
		}
	}
	if seeded == 0 {
		return nil // nothing to do
	}

	var wg sync.WaitGroup
	for i := 0; i < p.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The worker's drain buffer: every node it owns drains into it.
			var outs []OutDelta
			for pn := range p.ready {
				outs = p.work(pn, outs)
			}
		}()
	}
	<-p.quiet
	close(p.ready)
	wg.Wait()
	return nil
}

// work owns pn until it goes idle: push the inbox, drain to a local
// fixpoint into the worker's buffer buf, route the outbound deltas, and
// re-check the inbox under the lock before idling so a delivery racing
// the drain is never lost. It returns the buffer for the worker's next
// node.
func (p *Parallel) work(pn *pnode, buf []OutDelta) []OutDelta {
	for {
		pn.mu.Lock()
		batch := pn.inbox
		pn.inbox = nil
		pn.mu.Unlock()
		for _, d := range batch {
			pn.n.Push(d)
		}
		outs := pn.n.DrainInto(buf[:0])
		p.dispatch(outs)
		buf = reuseOut(buf, outs)
		pn.mu.Lock()
		if len(pn.inbox) > 0 {
			// New deltas arrived during the drain; keep ownership and
			// loop (equivalent to re-scheduling, minus the queue trip).
			pn.mu.Unlock()
			continue
		}
		pn.state.Store(pnIdle)
		pn.mu.Unlock()
		if p.pending.Add(-1) == 0 {
			// Counter at zero with every node idle: fixpoint. Every
			// delivery is made by a worker whose node is still counted,
			// so the counter cannot tick zero with a delivery in flight.
			p.quiet <- struct{}{}
		}
		return buf
	}
}

// dispatch routes one drain's outbound deltas. Drain output is sorted
// by destination, so each destination is one contiguous run delivered
// under a single inbox lock.
func (p *Parallel) dispatch(outs []OutDelta) {
	for i := 0; i < len(outs); {
		j := i
		for j < len(outs) && outs[j].Dst == outs[i].Dst {
			j++
		}
		pn, ok := p.nodes[outs[i].Dst]
		if !ok {
			p.undeliverable.Add(int64(j - i))
			i = j
			continue
		}
		pn.mu.Lock()
		for k := i; k < j; k++ {
			pn.inbox = append(pn.inbox, outs[k].Delta)
		}
		pn.mu.Unlock()
		if pn.state.CompareAndSwap(pnIdle, pnScheduled) {
			p.pending.Add(1)
			p.ready <- pn
		}
		i = j
	}
}

// Tuples gathers a predicate's tuples across all nodes, sorted. Call
// after Run returns.
func (p *Parallel) Tuples(pred string) []val.Tuple {
	var out []val.Tuple
	for _, id := range p.Nodes() {
		out = append(out, p.nodes[id].n.Tuples(pred)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// QueryResults returns the program's query predicate tuples fleet-wide.
func (p *Parallel) QueryResults() []val.Tuple {
	if p.prog.source.Query == nil {
		return nil
	}
	return p.Tuples(p.prog.source.Query.Pred)
}
