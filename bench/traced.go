package main

import (
	"container/heap"
	"errors"
	"fmt"
	"time"

	"ndlog/internal/analysis"
	"ndlog/internal/ast"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/planner"
	"ndlog/internal/simnet"
	"ndlog/internal/table"
	"ndlog/internal/val"
)

var errNotQuiescent = errors.New("simulator hit its event limit before quiescence")

// tracedFrontEnd times the front end on the workload's own program:
// parse, localize, analyze, and one engine.NewNode compile.
func tracedFrontEnd(c *ctx, node, src string, opts engine.Options) error {
	c.tr.begin("parser.parse")
	prog, err := parser.Parse(src)
	c.tr.end()
	if err != nil {
		return err
	}
	c.tr.begin("planner.localize")
	_, err = planner.Localize(prog)
	c.tr.end()
	if err != nil {
		return err
	}
	c.tr.begin("analysis.analyze")
	diags := analysis.Analyze(prog)
	c.tr.end()
	if analysis.HasErrors(diags) {
		return fmt.Errorf("analysis: %s", diags[0].Format("program"))
	}
	c.tr.begin("engine.compile")
	_, err = engine.NewNode(node, prog, opts)
	c.tr.end()
	if err != nil {
		return err
	}
	tot := c.tr.totals()
	c.add("parser.parse_ms", millis(tot["parser.parse"].self))
	c.add("planner.localize_ms", millis(tot["planner.localize"].self))
	c.add("analysis.analyze_ms", millis(tot["analysis.analyze"].self))
	c.add("engine.compile_ms", millis(tot["engine.compile"].self))
	return nil
}

// wireMsg is one encoded batch on its way between two traced nodes.
type wireMsg struct {
	from, to string
	payload  []byte
	at       float64 // virtual arrival time
	seq      int     // send order, the tie-break for equal times
}

// msgHeap orders in-flight messages as simnet orders its events.
type msgHeap []wireMsg

func (h msgHeap) Len() int { return len(h) }
func (h msgHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h msgHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *msgHeap) Push(x any)   { *h = append(*h, x.(wireMsg)) }
func (h *msgHeap) Pop() any {
	old := *h
	m := old[len(old)-1]
	old[len(old)-1] = wireMsg{}
	*h = old[:len(old)-1]
	return m
}

// storeEvent is one OnStore callback, kept for the table/val replays.
type storeEvent struct {
	node  int
	sign  int8
	tuple val.Tuple
}

// tracedNet is the traced driver: a single-threaded loop owned by the
// benchmark over one engine.NewNode per overlay node, so that every
// layer boundary engine.Cluster crosses internally (drain, encode,
// decode) is a call this package makes and can put a span around. It
// schedules as Cluster-over-simnet does — a sender's messages leave
// ProcDelay apart, arrive one link latency later, never overtake on a
// link, and are delivered in (time, send order) — so it performs the
// same derivations in the same order and must send exactly the
// cluster's messages, which the traced run checks. Its fixpoint is
// oracle-checked like any executor's.
type tracedNet struct {
	tr    *tracer
	net   *network
	nodes map[string]*engine.Node
	index map[string]int
	order []string

	now         float64
	inflight    msgHeap
	seq         int
	sendFree    map[string]float64    // when each sender is next free
	lastArrival map[[2]string]float64 // per directed link, for FIFO

	sent   []wireMsg // every message ever sent, for the simnet replay
	events []storeEvent

	scratch  []engine.Delta
	batch    []engine.Delta
	deltasIn int
	wireOut  int // deltas encoded
	bytesOut int
	derivs   int
	stores   int
	retracts int
	queueHWM int
	drained  time.Duration // running total of the engine.drain spans
}

func newTracedNet(tr *tracer, n *network, prog *ast.Program) (*tracedNet, error) {
	t := &tracedNet{tr: tr, net: n, nodes: map[string]*engine.Node{}, index: map[string]int{}, order: n.ids(),
		sendFree: map[string]float64{}, lastArrival: map[[2]string]float64{}}
	opts := engineOpts
	opts.OnDerive = func(string, string, engine.Delta) { t.derivs++ }
	opts.OnStore = func(id string, d engine.Delta, _ float64) {
		if d.Sign > 0 {
			t.stores++
		} else {
			t.retracts++
		}
		t.events = append(t.events, storeEvent{t.index[id], d.Sign, d.Tuple})
	}
	for i, id := range t.order {
		node, err := engine.NewNode(id, prog, opts)
		if err != nil {
			return nil, err
		}
		t.nodes[id], t.index[id] = node, i
	}
	return t, nil
}

// pump drains one node and encodes its output, one message per
// destination in first-appearance order (Drain returns its deltas
// grouped by destination).
func (t *tracedNet) pump(id string) error {
	node := t.nodes[id]
	if q := node.QueueLen(); q > t.queueHWM {
		t.queueHWM = q
	}
	t.tr.begin("engine.drain")
	outs := node.Drain()
	t.drained += t.tr.end()
	for i := 0; i < len(outs); {
		j := i
		t.batch = t.batch[:0]
		for ; j < len(outs) && outs[j].Dst == outs[i].Dst; j++ {
			t.batch = append(t.batch, outs[j].Delta)
		}
		t.tr.begin("codec.encode")
		payload := engine.AppendDeltas(nil, t.batch)
		t.tr.end()
		t.wireOut += len(t.batch)
		t.bytesOut += len(payload)
		if err := t.send(id, outs[i].Dst, payload); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// send schedules a message the way Cluster.sendNow and Sim.Send do.
func (t *tracedNet) send(from, to string, payload []byte) error {
	l, ok := t.net.overlay.Link(simnet.NodeID(from), simnet.NodeID(to))
	if !ok {
		return fmt.Errorf("traced driver: %s derived a tuple for non-neighbour %s", from, to)
	}
	proc := t.net.cfg.ProcDelay
	depart := max(t.now+proc, t.sendFree[from])
	t.sendFree[from] = depart + proc
	link := [2]string{from, to}
	// Summed in simnet's order (now + delay + latency): ties in arrival
	// time decide delivery order, so the rounding must match too.
	at := max(t.now+(depart-t.now)+l.LatencySec, t.lastArrival[link])
	t.lastArrival[link] = at
	m := wireMsg{from, to, payload, at, t.seq}
	t.seq++
	heap.Push(&t.inflight, m)
	t.sent = append(t.sent, m)
	return nil
}

// push hands one delta to a node at the current virtual time, as
// Cluster.Inject does for a home fact or an update.
func (t *tracedNet) push(id string, d engine.Delta) error {
	node := t.nodes[id]
	node.SetNow(t.now)
	node.Push(d)
	t.deltasIn++
	return t.pump(id)
}

// run delivers in-flight messages in virtual-time order until none is
// left.
func (t *tracedNet) run() error {
	for t.inflight.Len() > 0 {
		m := heap.Pop(&t.inflight).(wireMsg)
		t.now = max(t.now, m.at)
		node := t.nodes[m.to]
		node.SetNow(t.now)
		t.tr.begin("codec.decode")
		ds, err := engine.DecodeMessageInto(m.payload, node.Interner(), t.scratch[:0])
		t.tr.end()
		if err != nil {
			return err
		}
		for _, d := range ds {
			node.Push(d)
		}
		t.deltasIn += len(ds)
		t.scratch = ds
		if err := t.pump(m.to); err != nil {
			return err
		}
	}
	return nil
}

func (t *tracedNet) tuples(pred string) []val.Tuple {
	var out []val.Tuple
	for _, id := range t.order {
		out = append(out, t.nodes[id].Tuples(pred)...)
	}
	return out
}

// seed injects the program's facts one by one in program order, as
// Cluster.Seed does.
func (t *tracedNet) seed(prog *ast.Program) error {
	for _, f := range prog.Facts {
		if err := t.push(f.Loc(), engine.Insert(f)); err != nil {
			return err
		}
	}
	return nil
}

// sameWire checks that the driver sent what the cluster sent.
func (t *tracedNet) sameWire(c *ctx, sim *simnet.Sim) {
	c.check(int64(len(t.sent)) == sim.Messages() && int64(t.bytesOut+simnet.HeaderBytes*len(t.sent)) == sim.Bytes(),
		"traced driver: message or byte count differs from engine.Cluster's on the same input")
}

// report publishes the engine and codec numbers of everything the
// driver has done so far.
func (t *tracedNet) report(c *ctx) {
	tot := t.tr.totals()
	drain, enc, dec := tot["engine.drain"], tot["codec.encode"], tot["codec.decode"]
	c.add("engine.compiles_per_run", float64(len(t.order)))
	c.add("engine.drain_s", seconds(drain.self))
	c.add("engine.drains", float64(drain.count))
	c.add("engine.deltas_in", float64(t.deltasIn))
	c.add("engine.deltas_out", float64(t.wireOut))
	c.add("engine.derivations", float64(t.derivs))
	c.add("engine.stores", float64(t.stores))
	c.add("engine.retracts", float64(t.retracts))
	c.add("engine.store_ratio", ratio(float64(t.stores), float64(t.derivs)))
	c.add("engine.ns_per_derivation", ratio(float64(drain.self), float64(t.derivs)))
	c.add("engine.allocs_per_derivation", ratio(float64(drain.allocs), float64(t.derivs)))
	c.add("engine.queue_hwm", float64(t.queueHWM))

	c.add("codec.encode_s", seconds(enc.self))
	c.add("codec.decode_s", seconds(dec.self))
	c.add("codec.encode_ns_per_delta", ratio(float64(enc.self), float64(t.wireOut)))
	c.add("codec.decode_ns_per_delta", ratio(float64(dec.self), float64(t.wireOut)))
	c.add("codec.decode_allocs_per_delta", ratio(float64(dec.allocs), float64(t.wireOut)))
	c.add("codec.bytes_per_delta", ratio(float64(t.bytesOut), float64(t.wireOut)))
	c.add("codec.deltas_per_msg", ratio(float64(t.wireOut), float64(len(t.sent))))
}

// tracedColdStart runs src's cold start on the traced driver, checks
// its fixpoint, and attributes plain (the executor's own convergence
// time on the same input) to the layers.
func tracedColdStart(c *ctx, n *network, src string, facts []val.Tuple, plain time.Duration) (*tracedNet, *ast.Program, error) {
	if err := tracedFrontEnd(c, n.ids()[0], src, engineOpts); err != nil {
		return nil, nil, err
	}
	prog, err := n.parse(src, facts)
	if err != nil {
		return nil, nil, err
	}
	t, err := newTracedNet(c.tr, n, prog)
	if err != nil {
		return nil, nil, err
	}
	t0 := time.Now()
	if err := t.seed(prog); err != nil {
		return nil, nil, err
	}
	if err := t.run(); err != nil {
		return nil, nil, err
	}
	wall := time.Since(t0)

	tot := c.tr.totals()
	layers := tot["engine.drain"].self + tot["codec.encode"].self + tot["codec.decode"].self
	c.add("engine.cluster.overhead_share", ratio(seconds(plain-layers), seconds(plain)))
	c.add("trace.driver_vs_cluster_x", ratio(seconds(wall), seconds(plain)))
	return t, prog, nil
}

// replays checks the driver's fixpoint, publishes its counts, and runs
// the table, interner and simnet replays of what it recorded.
func (t *tracedNet) replays(c *ctx, n *network, prog *ast.Program) error {
	c.checkPaths(n, t.tuples("shortestPath"))
	t.report(c)
	replayTables(c, prog, len(t.order), t.events)
	replayInterner(c, t.events)
	links := make([]simLink, len(n.overlay.Links))
	for i, l := range n.overlay.Links {
		links[i] = simLink{l.A, l.B, l.LatencySec}
	}
	return replaySimnet(c, n.cfg.Seed, n.overlay.Nodes, links, t.sent)
}

// replayTables feeds the recorded store/retract sequence to fresh
// tables keyed like the program's, one set per node as in the engine,
// and to a min aggregate grouped like spCost, timing each operation
// kind on its own. path rows also probe a (src,dst) secondary index
// once each, the shape of the sp3/sp4 join.
func replayTables(c *ctx, prog *ast.Program, nodes int, events []storeEvent) {
	decl := map[string]*ast.TableDecl{}
	for _, d := range prog.Materialized {
		decl[d.Name] = d
	}
	type nodeTables struct {
		t   map[string]*table.Table
		idx *table.Index
		agg *table.GroupAgg
	}
	sets := make([]nodeTables, nodes)
	for i := range sets {
		sets[i] = nodeTables{t: map[string]*table.Table{}, agg: table.NewGroupAgg(ast.AggMin)}
		for name, d := range decl {
			sets[i].t[name] = table.New(name, d.Keys, -1, 0)
		}
		if p := sets[i].t["path"]; p != nil {
			sets[i].idx = p.EnsureIndex([]int{0, 1})
		}
	}
	var ins, del, match, add, rem time.Duration
	var nIns, nDel, nMatch, nAdd, nRem, rows, hwm int
	for stamp, ev := range events {
		s := &sets[ev.node]
		tb := s.t[ev.tuple.Pred]
		if tb == nil {
			continue
		}
		isPath := ev.tuple.Pred == "path" && s.idx != nil
		if ev.sign > 0 {
			t0 := time.Now()
			res := tb.Insert(ev.tuple, uint64(stamp), 0)
			ins += time.Since(t0)
			nIns++
			if res.Status == table.StatusNew {
				rows++
			}
		} else {
			t0 := time.Now()
			gone, _ := tb.Delete(ev.tuple)
			del += time.Since(t0)
			nDel++
			if gone {
				rows--
			}
		}
		if rows > hwm {
			hwm = rows
		}
		if !isPath {
			continue
		}
		f := ev.tuple.Fields
		key, cost := f[:2], f[len(f)-1]
		if ev.sign > 0 {
			t0 := time.Now()
			_ = s.idx.Match(key)
			match += time.Since(t0)
			nMatch++
			t0 = time.Now()
			s.agg.Add(key, cost)
			add += time.Since(t0)
			nAdd++
		} else {
			t0 := time.Now()
			s.agg.Remove(key, cost)
			rem += time.Since(t0)
			nRem++
		}
	}
	c.add("table.insert_ns", ratio(float64(ins), float64(nIns)))
	c.add("table.delete_ns", ratio(float64(del), float64(nDel)))
	c.add("table.match_ns", ratio(float64(match), float64(nMatch)))
	c.add("table.rows_hwm", float64(hwm))
	c.add("table.agg_add_ns", ratio(float64(add), float64(nAdd)))
	c.add("table.agg_remove_ns", ratio(float64(rem), float64(nRem)))
}

// replayInterner resolves the stored-tuple sequence through a fresh
// interner, once timed and once counting: a call that leaves the pool
// (tuples, lists and strings together) no larger was a hit.
func replayInterner(c *ctx, events []storeEvent) {
	in := val.NewInterner()
	calls := 0
	t0 := time.Now()
	for _, ev := range events {
		if ev.sign > 0 {
			in.Intern(ev.tuple)
			calls++
		}
	}
	wall := time.Since(t0)
	c.add("val.intern_ns", ratio(float64(wall), float64(calls)))

	in = val.NewInterner()
	hits := 0
	for _, ev := range events {
		if ev.sign > 0 {
			before := in.Len()
			in.Intern(ev.tuple)
			if in.Len() <= before {
				hits++
			}
		}
	}
	c.add("val.intern_hit_ratio", ratio(float64(hits), float64(calls)))
}

// nullHandler receives and drops.
type nullHandler struct{}

func (nullHandler) HandleMessage(float64, simnet.NodeID, []byte) {}
func (nullHandler) HandleTimer(float64, string)                  {}

// simLink is one bidirectional simulator link.
type simLink struct {
	a, b    simnet.NodeID
	latency float64
}

// replaySimnet sends msgs — a run's message count, sizes and links —
// through a simulator whose nodes do nothing, in windows the size of a
// pump round so the event queue stays as shallow as a live run's.
func replaySimnet(c *ctx, seed int64, nodes []simnet.NodeID, links []simLink, msgs []wireMsg) error {
	sim := simnet.New(seed)
	for _, id := range nodes {
		sim.AddNode(id, nullHandler{})
	}
	for _, l := range links {
		if err := sim.AddLink(l.a, l.b, l.latency, 0); err != nil {
			return err
		}
	}
	const window = 64
	t0 := time.Now()
	for i := 0; i < len(msgs); i += window {
		for _, m := range msgs[i:min(i+window, len(msgs))] {
			if err := sim.Send(simnet.NodeID(m.from), simnet.NodeID(m.to), m.payload, 0); err != nil {
				return err
			}
		}
		if !sim.RunToQuiescence(len(msgs) + window) {
			return errNotQuiescent
		}
	}
	wall := time.Since(t0)
	c.add("simnet.events", float64(len(msgs)))
	c.add("simnet.ns_per_event", ratio(float64(wall), float64(len(msgs))))
	return nil
}
