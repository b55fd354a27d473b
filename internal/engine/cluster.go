package engine

import (
	"fmt"
	"sort"

	"ndlog/internal/ast"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// ClusterConfig tunes the distributed deployment.
type ClusterConfig struct {
	// ProcDelay is the per-message processing cost at the sender. Sends
	// from one node are serialized ProcDelay apart (a node's CPU/NIC
	// handles one tuple at a time), which is what spreads traffic over
	// virtual time the way the paper's testbed deployment does.
	ProcDelay float64
	// AggSelPeriod > 0 makes aggregate selections (Options.AggSel)
	// *periodic*: instead of advertising every improvement immediately,
	// a node flushes its pending groups AggSelPeriod seconds of virtual
	// time after the first became pending (Figures 9/10). Only the
	// simulator's timers flush them, so no other executor takes a period.
	AggSelPeriod float64
	// Share enables opportunistic message sharing; outbound deltas are
	// buffered Share.Delay seconds and combined per destination.
	Share *ShareConfig
	// Batch, when > 0 and Share is nil, buffers outbound deltas for
	// Batch seconds and sends one plain message per destination per
	// flush. This is the fair no-sharing baseline for Figure 12.
	Batch float64
}

// Cluster runs one NDlog program across the nodes of a simulated
// network. Every registered simulator node gets its own runtime; base
// facts are routed to their location specifiers; derived tuples travel
// as messages.
type Cluster struct {
	sim   *simnet.Sim
	prog  *Program
	opts  Options
	cfg   ClusterConfig
	nodes map[string]*Node
	// seeded marks the nodes Seed has pushed their base facts to.
	seeded map[string]bool

	// timer arming state, per node
	aggselArmed map[string]bool
	shareArmed  map[string]bool
	// shareBuf buffers outbound deltas per node -> dst between flush
	// timers; the inner maps and their slices are reused across flushes
	// (cleared, not reallocated). sharePending counts buffered deltas
	// per node, since empty-but-retained slices no longer mean "idle".
	shareBuf     map[string]map[string][]Delta
	sharePending map[string]int
	// sendFree is the virtual time each node's sender becomes free;
	// outbound messages depart serialized ProcDelay apart.
	sendFree map[string]float64

	// decodeBuf is HandleMessage's reusable decode batch: the simulator
	// is single-threaded, so one serves every node. It is cleared after
	// use, so it pins no tuples between events.
	decodeBuf []Delta
	// outBuf is the array every pump drains into, for the same reason;
	// it is cleared once the pump has encoded or buffered its deltas.
	outBuf []OutDelta
	// dstScratch is flushShare's reusable sorted-destination scratch.
	dstScratch []string
	// payloads is the free list of delivered message payloads that the
	// next plain sends encode into (see recyclePayload).
	payloads [][]byte

	undeliverable int
}

// NewCluster compiles prog and attaches a runtime to every node already
// registered in sim... nodes must be added to the cluster (AddNode), not
// the simulator directly, so the cluster can install its handlers.
func NewCluster(sim *simnet.Sim, prog *ast.Program, opts Options, cfg ClusterConfig) (*Cluster, error) {
	p, err := Compile(prog)
	if err != nil {
		return nil, err
	}
	return &Cluster{
		sim:          sim,
		prog:         p,
		opts:         opts,
		cfg:          cfg,
		nodes:        map[string]*Node{},
		seeded:       map[string]bool{},
		aggselArmed:  map[string]bool{},
		shareArmed:   map[string]bool{},
		shareBuf:     map[string]map[string][]Delta{},
		sharePending: map[string]int{},
		sendFree:     map[string]float64{},
	}, nil
}

// AddNode registers a node with both the simulator and the cluster.
func (c *Cluster) AddNode(id simnet.NodeID) *Node {
	n := c.prog.NewNode(string(id), c.opts)
	n.periodic = c.cfg.AggSelPeriod > 0
	c.nodes[string(id)] = n
	c.sim.AddNode(id, &clusterHandler{c: c, n: n})
	return n
}

// Node returns the runtime for a node ID.
func (c *Cluster) Node(id simnet.NodeID) *Node { return c.nodes[string(id)] }

// Nodes returns all node IDs in sorted order.
func (c *Cluster) Nodes() []string {
	out := make([]string, 0, len(c.nodes))
	for id := range c.nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Undeliverable counts derived tuples whose destination had no direct
// link from the deriving node (a violation of link-restriction; zero for
// well-formed programs).
func (c *Cluster) Undeliverable() int { return c.undeliverable }

// Netting sums the nodes' replacement-netting counters. Read it with the
// simulator quiescent.
func (c *Cluster) Netting() Netting {
	var sum Netting
	for _, n := range c.nodes {
		sum.Add(n.netting)
	}
	return sum
}

// Seed inserts the program's base facts at their home nodes. Call before
// running the simulator. A node is seeded at most once: a later call
// seeds only nodes added since, because a fact pushed twice would count
// twice, and one deletion would no longer remove it.
func (c *Cluster) Seed() error {
	for _, f := range c.prog.source.Facts {
		if !c.seeded[f.Loc()] {
			if err := c.Inject(f.Loc(), Insert(f)); err != nil {
				return err
			}
		}
	}
	for id := range c.nodes {
		c.seeded[id] = true
	}
	return nil
}

// Inject pushes a delta into a node's queue and pumps it, as if it had
// arrived at the current virtual time. Use from simnet.ScheduleFunc for
// mid-run updates.
func (c *Cluster) Inject(nodeID string, d Delta) error {
	n, ok := c.nodes[nodeID]
	if !ok {
		return fmt.Errorf("engine: inject into unknown node %q", nodeID)
	}
	n.SetNow(c.sim.Now())
	n.Push(d)
	c.pump(n)
	return nil
}

// Run seeds the program facts (Seed: at most once per node) and drives
// the simulator to quiescence. It returns false if maxEvents elapsed
// first.
func (c *Cluster) Run(maxEvents int) (bool, error) {
	if err := c.Seed(); err != nil {
		return false, err
	}
	return c.sim.RunToQuiescence(maxEvents), nil
}

// Tuples gathers a predicate's tuples across all nodes, sorted.
func (c *Cluster) Tuples(pred string) []val.Tuple {
	var out []val.Tuple
	for _, id := range c.Nodes() {
		out = append(out, c.nodes[id].Tuples(pred)...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// QueryResults returns the program's query predicate tuples cluster-wide.
func (c *Cluster) QueryResults() []val.Tuple {
	if c.prog.source.Query == nil {
		return nil
	}
	return c.Tuples(c.prog.source.Query.Pred)
}

// clusterHandler adapts a Node to the simulator's Handler interface.
type clusterHandler struct {
	c *Cluster
	n *Node
}

// batchKeep is the largest decode batch, in deltas, a cluster keeps for
// its next message.
const batchKeep = 128

func (h *clusterHandler) HandleMessage(now float64, from simnet.NodeID, payload []byte) {
	h.n.SetNow(now)
	// Decode into the cluster's scratch, strings resolved through the
	// receiving node's table: each tuple is its own allocation, the batch
	// around them is not.
	deltas, err := DecodeMessageInto(payload, h.n.Interner(), h.c.decodeBuf[:0])
	if err != nil {
		panic(fmt.Sprintf("engine: node %s: %v", h.n.id, err))
	}
	for _, d := range deltas {
		h.n.Push(d)
	}
	clear(deltas)
	if cap(deltas) <= batchKeep {
		h.c.decodeBuf = deltas[:0]
	}
	h.c.recyclePayload(payload)
	h.c.pump(h.n)
}

func (h *clusterHandler) HandleTimer(now float64, key string) {
	h.n.SetNow(now)
	switch key {
	case "aggsel":
		h.c.aggselArmed[h.n.id] = false
		h.n.FlushPending()
		h.c.pump(h.n)
	case "share":
		h.c.shareArmed[h.n.id] = false
		h.c.flushShare(h.n)
	}
}

// pump drains a node and routes its outbound deltas, then re-arms any
// timers the node still needs. In the unbuffered configuration the
// deltas of one pump round are batched per destination — one message
// carries every tuple bound for the same neighbor — so the per-message
// header and simulator event cost amortize (ROADMAP "batched wire
// encoding"); delivery order per destination is unchanged.
func (c *Cluster) pump(n *Node) {
	outs := n.DrainInto(c.outBuf[:0])
	if len(outs) > 0 {
		if c.cfg.Share != nil || c.cfg.Batch > 0 {
			for _, o := range outs {
				c.bufferOut(n, o)
			}
		} else {
			c.sendBatched(n, outs)
		}
	}
	// Every delta is now encoded or copied into the share buffer.
	c.outBuf = reuseOut(c.outBuf, outs)
	if n.periodic && !c.aggselArmed[n.id] && n.PendingGroups() > 0 {
		c.aggselArmed[n.id] = true
		c.sim.ScheduleTimer(simnet.NodeID(n.id), c.cfg.AggSelPeriod, "aggsel")
	}
}

// sendBatched sends one plain message per destination of a pump round.
// Drain output is sorted by destination, so each destination is one
// contiguous run, encoded straight from the drain result.
func (c *Cluster) sendBatched(n *Node, outs []OutDelta) {
	for i := 0; i < len(outs); {
		j := i
		for j < len(outs) && outs[j].Dst == outs[i].Dst {
			j++
		}
		c.sendNow(n, outs[i].Dst, AppendOutDeltas(c.takePayload(), outs[i:j]))
		i = j
	}
}

// Payload reuse bounds: the free list holds at most maxFreePayloads
// buffers of at most maxPayloadCap bytes each, so it never keeps more
// than 64 KiB however large a burst's messages grew.
const (
	maxFreePayloads = 16
	maxPayloadCap   = 4 << 10
)

// recyclePayload takes back a payload once its delivery has decoded it.
// Decoded tuples never alias the payload (copy-on-decode) and the
// simulator hands each payload to exactly one delivery, so nothing reads
// it again until a later send encodes into it.
func (c *Cluster) recyclePayload(p []byte) {
	if cap(p) <= maxPayloadCap && len(c.payloads) < maxFreePayloads {
		c.payloads = append(c.payloads, p[:0])
	}
}

// takePayload returns an empty buffer to encode a message into: a
// recycled payload when one is free, else nil (the encoder allocates).
func (c *Cluster) takePayload() []byte {
	k := len(c.payloads) - 1
	if k < 0 {
		return nil
	}
	p := c.payloads[k]
	c.payloads[k] = nil
	c.payloads = c.payloads[:k]
	return p
}

// bufferOut holds a delta in the share/batch buffer until the flush
// timer fires.
func (c *Cluster) bufferOut(n *Node, o OutDelta) {
	buf := c.shareBuf[n.id]
	if buf == nil {
		buf = map[string][]Delta{}
		c.shareBuf[n.id] = buf
	}
	buf[o.Dst] = append(buf[o.Dst], o.Delta)
	c.sharePending[n.id]++
	if !c.shareArmed[n.id] {
		c.shareArmed[n.id] = true
		delay := c.cfg.Batch
		if c.cfg.Share != nil {
			delay = c.cfg.Share.Delay
		}
		c.sim.ScheduleTimer(simnet.NodeID(n.id), delay, "share")
	}
}

func (c *Cluster) flushShare(n *Node) {
	if c.sharePending[n.id] == 0 {
		return
	}
	c.sharePending[n.id] = 0
	buf := c.shareBuf[n.id]
	dsts := c.dstScratch[:0]
	for d, ds := range buf {
		if len(ds) > 0 {
			dsts = append(dsts, d)
		}
	}
	sort.Strings(dsts)
	for _, dst := range dsts {
		deltas := buf[dst]
		var payload []byte
		if c.cfg.Share != nil {
			payload = EncodeShared(c.cfg.Share, deltas)
		} else {
			payload = AppendDeltas(c.takePayload(), deltas)
		}
		c.sendNow(n, dst, payload)
		// Keep the per-destination slice for the next flush; drop its
		// tuple references now.
		clear(deltas)
		buf[dst] = deltas[:0]
	}
	c.dstScratch = dsts[:0]
}

func (c *Cluster) sendNow(n *Node, dst string, payload []byte) {
	now := c.sim.Now()
	depart := now + c.cfg.ProcDelay
	if free := c.sendFree[n.id]; free > depart {
		depart = free
	}
	c.sendFree[n.id] = depart + c.cfg.ProcDelay
	err := c.sim.Send(simnet.NodeID(n.id), simnet.NodeID(dst), payload, depart-now)
	if err != nil {
		c.undeliverable++
	}
}

// ExpireAll triggers soft-state expiry on every node at the current
// virtual time (drive from simnet.ScheduleFunc for periodic sweeps).
func (c *Cluster) ExpireAll() {
	for _, id := range c.Nodes() {
		n := c.nodes[id]
		n.SetNow(c.sim.Now())
		n.ExpireSoftState()
		c.pump(n)
	}
}
