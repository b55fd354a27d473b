package engine

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"

	"ndlog/internal/ast"
	"ndlog/internal/funcs"
	"ndlog/internal/planner"
	"ndlog/internal/table"
	"ndlog/internal/val"
)

// Mode selects the evaluation strategy (Section 3).
type Mode uint8

// Evaluation modes.
const (
	// PSN is pipelined semi-naïve evaluation (Algorithm 3): each tuple is
	// processed as it arrives, with logical timestamps preventing
	// repeated inferences. This is the distributed default.
	PSN Mode = iota
	// SN is classic semi-naïve evaluation (Algorithm 1): each drain round
	// takes the whole queue as one delta buffer under one stamp. On a
	// distributed node the rounds are local iterations over what has
	// arrived. Theorem 1 (FPS = FPP) is checked against it.
	SN
)

func (m Mode) String() string {
	switch m {
	case PSN:
		return "psn"
	case SN:
		return "sn"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseMode parses a mode name as spelled by Mode.String ("psn", "sn";
// "" means PSN, the distributed default). It is the plumbing for
// command-line flags and deployment manifests (internal/shard), which
// carry the mode as text.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "psn":
		return PSN, nil
	case "sn":
		return SN, nil
	case "bsn":
		return PSN, fmt.Errorf(`engine: evaluation mode "bsn" was removed: it ran SN's whole-queue rounds under another name; use "sn"`)
	}
	return PSN, fmt.Errorf("engine: unknown evaluation mode %q", s)
}

// Options configures a node (and, via Cluster, the whole deployment).
type Options struct {
	// Mode selects PSN or SN evaluation.
	Mode Mode
	// AggSel enables the aggregate-selections optimization
	// (Section 5.1.1): tuples that do not improve their group aggregate
	// do not trigger propagation strands. It applies to the selections
	// the planner proves safe (planner.AggSelection.Prunable).
	AggSel bool
	// StrandFilter, when non-nil, is consulted before a trigger strand
	// runs; returning false skips the strand. Used for query-result
	// caching (Section 5.2), where a cache hit suppresses further
	// exploration.
	StrandFilter func(n *Node, ruleLabel string, d Delta) bool
	// OnStore observes every accepted store/retract at a node, for the
	// experiment harness ("% results over time").
	OnStore func(nodeID string, d Delta, now float64)
	// OnDerive observes every derived head tuple before routing, with
	// the label of the deriving rule. Used by watch(...) tracing. The
	// tuple may be carved from a shared chunk (DESIGN.md §3): a hook that
	// keeps it keeps the whole chunk alive.
	OnDerive func(nodeID, ruleLabel string, d Delta)
	// Parallelism is the number of nodes drained at once: the worker
	// count of the in-process Parallel executor, and (through Workers) of
	// netrun's per-node Seed and RederiveFor walks. 0 means GOMAXPROCS; 1
	// forces sequential evaluation. A node itself is single-threaded — it
	// is owned by exactly one worker at a time, so Push/Drain need no
	// locks of their own — which makes the knob inert for Central (one
	// node) and for the simnet Cluster (virtual time is single-threaded by
	// construction).
	Parallelism int
}

// Workers resolves the Parallelism option to the worker-pool size it
// implies: 0 defaults to GOMAXPROCS, anything below 1 clamps to 1.
// Drivers (netrun, shard) bound their own per-node fan-out by it.
func (o Options) Workers() int {
	if o.Parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return max(o.Parallelism, 1)
}

// Node is one NDlog runtime instance: the tables, aggregate state, and
// delta queue of a single network node.
type Node struct {
	id   string
	prog *Program
	opts Options
	cat  *table.Catalog
	// soft lists the soft-state tables in name order — the tables, and the
	// order, an expiry sweep visits. Only declared tables can be soft.
	soft []*table.Table
	// central loops every derived tuple back to this node regardless of
	// its location specifier (single-site evaluation).
	central bool
	// byRef marks a node whose remote heads reach their destination by
	// reference (Parallel), where the receiver stores the very tuple: they
	// keep their exact arrays instead of being carved (see resetCtx).
	byRef bool
	// periodic defers aggregate-selection advertisements to FlushPending,
	// which only a driver with a flush timer calls (Cluster, when its
	// ClusterConfig.AggSelPeriod is set).
	periodic bool

	stamp uint64
	now   float64

	queue deltaQueue
	// stored holds the insertions a drain round stored, awaiting
	// afterStore. A PSN round stores at most one: storedOne backs it
	// inside the node's own allocation.
	stored    []storedRow
	storedOne [1]storedRow
	// out collects the deltas routed to other nodes: during a drain it is
	// the caller's buffer (DrainInto); between drains (expiry sweeps,
	// FlushPending) it grows on its own until the next drain moves it
	// there.
	out []OutDelta
	// net is the scratch of Drain's replacement fold over out, and netting
	// the counters of both halves of "a replacement is one delta".
	net     outNet
	netting Netting

	aggs map[*ast.Rule]*aggState
	// sels maps a source predicate to the aggregate-selection controls
	// that prune it.
	sels map[string][]*selControl

	// res holds the per-strand table and secondary-index handles for
	// this node, resolved once at construction so the join path never
	// re-derives a table from a name or an index from a signature.
	res map[*strand]*strandRes
	// jc is the reusable join context (environment, binding trail); the
	// engine is single-threaded per node, so one context serves every
	// strand run.
	jc joinCtx
	// carve supplies the field arrays of the heads this node derives but
	// does not keep — retractions, and insertions its driver encodes for
	// another node (see resetCtx and aggHead). Drain drops its chunk.
	carve val.Carver
	// aggKeyScratch backs aggKeyVals between aggregate emits, and
	// groupScratch an aggregate selection's group key (groupKey).
	aggKeyScratch []val.Value
	groupScratch  []val.Value
	aggRun        aggRun

	// journal, when set, observes every processed delta whose predicate
	// is part of the node's recoverable state (see SetJournal); journaled
	// caches that predicate test.
	journal   func(d Delta)
	journaled map[string]bool

	// in is the node's string table: wire decode resolves predicate
	// names, addresses and string payloads through it (see Interner), so
	// a received tuple with known strings costs one allocation.
	in *val.Interner
}

// storedRow is an accepted insert awaiting its post-store work: the
// tuple, the row that held it when it was stored and, when it took the
// row over by primary key, the tuple it displaced (else the zero Tuple).
type storedRow struct {
	t   val.Tuple
	e   *table.Entry
	old val.Tuple
}

// OutDelta is a derived delta bound for another node, returned by
// Node.Drain for the driver (simulated cluster or real transport) to
// deliver.
type OutDelta struct {
	Dst   string
	Delta Delta
}

// aggState is the incremental state of one aggregate rule.
type aggState struct {
	st  *strand
	agg *table.GroupAgg
}

// selControl binds a prunable aggregate selection to its aggregate state
// and the index used to find group members for re-advertisement.
type selControl struct {
	sel   planner.AggSelection
	state *aggState
	idx   *table.Index
	// pending holds the groups awaiting a periodic flush, keyed by the
	// hash of their group-column values with collision chains of the
	// values themselves.
	pending map[uint64][][]val.Value
}

// addPending marks t's group for the next periodic flush. The key is
// projected into node scratch and copied only when the group is new.
func (n *Node) addPending(c *selControl, t val.Tuple) {
	key := n.groupKey(c, t)
	h := val.HashValues(key)
	for _, k := range c.pending[h] {
		if val.ValuesEqual(k, key) {
			return
		}
	}
	c.pending[h] = append(c.pending[h], slices.Clone(key))
}

// groupKey projects t onto c's group columns into the node's scratch,
// valid until the next call (out-of-range columns are skipped; planner
// checks keep them from occurring).
func (n *Node) groupKey(c *selControl, t val.Tuple) []val.Value {
	key := n.groupScratch[:0]
	for _, col := range c.sel.GroupCols {
		if col >= 0 && col < len(t.Fields) {
			key = append(key, t.Fields[col])
		}
	}
	n.groupScratch = key
	return key
}

// NewNode returns a standalone runtime for one network node of the
// compiled program. The caller owns the message loop: feed arriving
// deltas with Push, call Drain for the outbound deltas, and route them
// to their destinations (see internal/netrun for a UDP-based driver).
// The program's base facts are NOT loaded automatically; push the ones
// homed at this node.
func (prog *Program) NewNode(id string, opts Options) *Node {
	n := &Node{
		id:   id,
		prog: prog,
		opts: opts,
		cat:  table.NewCatalog(),
		aggs: map[*ast.Rule]*aggState{},
		sels: map[string][]*selControl{},
		in:   val.NewInterner(),
	}
	n.stored = n.storedOne[:0]
	for name, d := range prog.decls {
		if tbl := n.cat.Declare(name, d.Keys, d.Lifetime, d.MaxSize); tbl.TTL() >= 0 {
			n.soft = append(n.soft, tbl)
		}
	}
	slices.SortFunc(n.soft, func(a, b *table.Table) int { return strings.Compare(a.Name(), b.Name()) })
	// Instantiate the plan's indexes, then resolve every strand's per-atom
	// table and index handles against this node's tables up front: the
	// join path then probes by hash directly, with no per-probe name
	// resolution or column-set lookup.
	indexes := map[string][]*table.Index{}
	for pred, specs := range prog.indexes {
		tbl := n.cat.Get(pred)
		for _, spec := range specs {
			indexes[pred] = append(indexes[pred], tbl.EnsureIndex(spec.cols))
		}
	}
	n.res = map[*strand]*strandRes{}
	for _, sts := range prog.strands {
		for _, st := range sts {
			if _, ok := n.res[st]; !ok {
				r := &strandRes{
					tbl: make([]*table.Table, len(st.atoms)),
					idx: make([]*table.Index, len(st.atoms)),
				}
				for i, a := range st.atoms {
					r.tbl[i] = n.cat.Get(a.Pred)
					if path := st.paths[i]; path.kind == accessIndex {
						r.idx[i] = indexes[a.Pred][path.index]
					}
				}
				n.res[st] = r
			}
			if !st.isAgg {
				continue
			}
			if _, ok := n.aggs[st.rule]; ok {
				continue
			}
			agg := st.rule.Head.Args[st.aggIdx].(*ast.Agg)
			n.aggs[st.rule] = &aggState{
				st:  st,
				agg: table.NewGroupAgg(agg.Func),
			}
		}
	}
	n.jc.res = n.res
	// One slot environment sized for the widest rule serves every strand
	// run at this node (the engine is single-threaded per node).
	n.jc.env = funcs.NewSlotEnv(prog.maxSlots)
	if opts.AggSel {
		for _, sel := range prog.aggSels {
			state := n.aggStateFor(sel)
			if state == nil {
				continue
			}
			ctrl := &selControl{
				sel:     sel,
				state:   state,
				idx:     n.cat.Get(sel.SrcPred).EnsureIndex(sel.GroupCols),
				pending: map[uint64][][]val.Value{},
			}
			n.sels[sel.SrcPred] = append(n.sels[sel.SrcPred], ctrl)
		}
	}
	return n
}

func (n *Node) aggStateFor(sel planner.AggSelection) *aggState {
	for rule, st := range n.aggs {
		if rule.Head.Pred == sel.AggPred && st.st.atoms[0].Pred == sel.SrcPred {
			return st
		}
	}
	return nil
}

// ID returns the node's network identifier.
func (n *Node) ID() string { return n.id }

// Catalog exposes the node's tables (read-mostly; external mutation is
// reserved for tests and cache hooks).
func (n *Node) Catalog() *table.Catalog { return n.cat }

// Interner returns the string table that wire decoders feeding this
// node should resolve incoming tuples through (see DecodeMessageInto).
// Drivers must call it under the same single-threading discipline as
// Push/Drain.
func (n *Node) Interner() *val.Interner { return n.in }

// SetNow advances the node's virtual clock (driver responsibility).
func (n *Node) SetNow(now float64) { n.now = now }

// Now returns the node's virtual clock.
func (n *Node) Now() float64 { return n.now }

// Push enqueues a delta for processing.
func (n *Node) Push(d Delta) { n.queue.push(d) }

// SetJournal installs fn as the node's durability tap: every delta the
// evaluator processes on a recoverable predicate — soft state of any
// origin, or hard state no rule derives (the same notion of "cannot be
// rebuilt" as Export) — is handed to fn before it takes effect, in
// processing order. Duplicates are included: hard-state counts and
// soft-state refreshes are both replay-significant. Derived hard state
// is excluded; recovery rebuilds it with Rederive. The driver installs
// the tap only after recovery replay has finished, so replayed deltas
// are not re-journaled. nil uninstalls.
func (n *Node) SetJournal(fn func(d Delta)) {
	n.journal = fn
	if fn == nil || n.journaled != nil {
		return
	}
	n.journaled = map[string]bool{}
	for _, name := range n.cat.Names() {
		n.journaled[name] = n.cat.Get(name).TTL() >= 0 || !n.prog.derived[name]
	}
}

// journalDelta feeds a delta about to be processed to the journal tap.
func (n *Node) journalDelta(d Delta) {
	if n.journal != nil && n.journaled[d.Tuple.Pred] {
		n.journal(d)
	}
}

// QueueLen returns the number of pending deltas.
func (n *Node) QueueLen() int { return n.queue.len() }

// Drain is DrainInto(nil): the deltas for other nodes come back in a new
// array, which the caller keeps.
func (n *Node) Drain() []OutDelta { return n.DrainInto(nil) }

// DrainInto processes the queue to a local fixpoint and appends to dst
// the deltas destined for other nodes — those derived since the last
// drain included — stable-sorted by destination. A driver that encodes
// or copies one drain's output before it starts the next passes one
// buffer of its own, emptied, to every drain (Cluster keeps one for all
// of its nodes, Parallel one per worker); the node keeps no reference to
// it. A head carved for another node (DESIGN.md §3) lives
// in the result until the caller drops it.
func (n *Node) DrainInto(dst []OutDelta) []OutDelta {
	base := len(dst)
	n.out = append(dst, n.out...)
	n.drain()
	out := n.out
	n.out = nil
	out = out[:base+len(n.foldReplacements(out[base:]))]
	// The heads carved this drain are in out or already processed: an idle
	// node holds no chunk — neither the allocator's nor, through the join
	// context's last retracted tuple, the one it came in.
	n.carve.Reset()
	n.jc.deleted = val.Tuple{}
	// Stable-sort by destination (per-destination relative order
	// preserved), so drivers can group contiguous runs per destination
	// without a map.
	if len(out)-base > 1 {
		slices.SortStableFunc(out[base:], func(a, b OutDelta) int { return strings.Compare(a.Dst, b.Dst) })
	}
	return out
}

// reuseOut returns the buffer a driver hands its next DrainInto, given
// the one it handed this one (buf) and the result (outs), whose deltas
// it has encoded or copied by now. It keeps outs's array, cleared of its
// tuples, unless a burst grew it beyond keepCap; then it keeps buf's,
// which the drain filled before it outgrew it, cleared in full.
func reuseOut(buf, outs []OutDelta) []OutDelta {
	if cap(outs) > keepCap {
		outs = buf[:cap(buf)]
	}
	clear(outs)
	return outs[:0]
}

// drain runs the queue to a local fixpoint in rounds. A round takes the
// oldest delta under PSN, everything queued when it starts under SN — by
// Theorem 1 the modes differ only in how many deltas share a stamp — and
// puts each delta through one step: the journal sees it, an event runs
// its strands and is not stored, an insertion is stored, a deletion
// propagates. The round's stored insertions then run their strands under
// the round's stamp, which its first insertion or event took (a deletion
// takes none).
// Pre-trigger atoms see strictly older stamps and post-trigger atoms see
// up to and including it, so a tuple joining itself (self-join rules)
// derives each pair exactly once (Theorem 2). What a round derives for
// this node waits in the queue for a later round.
func (n *Node) drain() {
	for n.queue.len() > 0 {
		round := 1
		if n.opts.Mode == SN {
			round = n.queue.len()
		}
		stamped := false
		for ; round > 0; round-- {
			d := n.queue.pop()
			n.journalDelta(d)
			event := n.prog.events[d.Tuple.Pred]
			if d.Sign < 0 {
				// An event's deletion is dropped: the instant has passed.
				if !event {
					n.processDelete(d.Tuple)
				}
				continue
			}
			if !stamped {
				n.stamp++
				stamped = true
			}
			if event {
				n.runEvent(d.Tuple)
			} else if r, ok := n.storeInsert(d.Tuple, n.stamp); ok {
				n.stored = append(n.stored, r)
			}
		}
		for _, r := range n.stored {
			n.afterStore(r, int64(n.stamp), int64(n.stamp))
		}
		clear(n.stored)
		n.stored = n.stored[:0]
	}
}

// runEvent runs an event's trigger strands without storing it. Because
// nothing is stored, later retractions of the tables an event joined
// find no event tuple to re-join, so no deletion cascade ever flows
// through an event — what keeps tick- and request-driven rule chains
// stable under churn. Never stored, an event cannot meet itself in a
// join, so its joins are unbounded: they see every stored tuple, those
// its own SN round stored before it included. There is no aggregate
// maintenance (the analyzer rejects aggregates over events) and no
// advertisement state.
func (n *Node) runEvent(t val.Tuple) {
	if n.opts.OnStore != nil {
		n.opts.OnStore(n.id, Insert(t), n.now)
	}
	n.runNormalStrands(+1, t, noLimit, noLimit)
}

// storeInsert applies the table effects of an insertion: duplicate
// counting, primary-key replacement, and eviction. It returns the row now
// holding the tuple — with the tuple it displaced, whose retraction is
// afterStore's to propagate together with the insertion — and false when
// the tuple was a duplicate (a soft-state duplicate is re-advertised
// here).
func (n *Node) storeInsert(t val.Tuple, stamp uint64) (storedRow, bool) {
	tbl := n.cat.Get(t.Pred)
	res := tbl.Insert(t, stamp, n.now)
	switch res.Status {
	case table.StatusReplaced:
		return storedRow{t: t, e: res.Entry, old: res.Replaced}, true
	case table.StatusDuplicate:
		// Soft-state refresh semantics (Section 4.2): re-inserting a
		// soft-state tuple re-runs its trigger strands so downstream soft
		// state is refreshed in turn (downstream tables should themselves
		// be soft state — the paper's trade-off for this model is
		// recomputation instead of precise incremental deltas). Hard-state
		// duplicates only bump the count.
		if tbl.TTL() >= 0 {
			markAdv(res.Entry, t)
			n.runNormalStrands(+1, t, int64(stamp), int64(stamp))
		}
		return storedRow{}, false
	case table.StatusNew:
		for _, ev := range res.Evicted {
			if !ev.Equal(t) {
				n.afterDelete(ev)
			}
		}
		return storedRow{t: t, e: res.Entry}, true
	}
	return storedRow{}, false
}

// afterStore propagates an accepted insert: aggregate maintenance, then
// (unless suppressed by aggregate selections) the trigger strands of the
// tuple now in row r.e. ltBefore/leAfter are the join stamp bounds (see
// joinCtx).
//
// A key replacement is one delta, not a deletion followed by an
// insertion: the displaced tuple leaves and the new one enters each
// aggregate inside one netting window (see aggRun.pend), so a group whose
// value the pair moves c → alt → c' emits one change and a group it
// leaves where it was emits none; only then do the displaced tuple's
// deletion strands and the new tuple's insertion strands run, and the
// group is checked for an unadvertised best once, at the end.
func (n *Node) afterStore(r storedRow, ltBefore, leAfter int64) {
	replaced := r.old.Pred != ""
	if n.opts.OnStore != nil {
		if replaced {
			n.opts.OnStore(n.id, Deletion(r.old), n.now)
		}
		n.opts.OnStore(n.id, Insert(r.t), n.now)
	}
	improving, contributed := n.runAggStrands(r.old, r.t, ltBefore, leAfter)
	if replaced {
		n.runNormalStrands(-1, r.old, noLimit, noLimit)
	}
	n.advertise(r, improving, contributed, ltBefore, leAfter)
	if replaced {
		n.readvertiseGroups(r.old)
	}
}

// advertise runs the trigger strands of a newly stored tuple unless an
// aggregate selection prunes it: improving and contributed are
// runAggStrands' verdicts on its insertion.
func (n *Node) advertise(r storedRow, improving, contributed bool, ltBefore, leAfter int64) {
	if ctrls := n.sels[r.t.Pred]; len(ctrls) > 0 && contributed {
		if n.periodic {
			// Periodic mode: defer everything to the flush timer.
			for _, c := range ctrls {
				n.addPending(c, r.t)
			}
			return
		}
		if !improving {
			return
		}
	}
	markAdv(r.e, r.t)
	n.runNormalStrands(+1, r.t, ltBefore, leAfter)
}

// markAdv records that t's trigger strands have run, on the row t was
// stored in — the table hashed the tuple once, at Insert, and handed the
// row back. A row since reused by a key replacement holds another tuple,
// whose own advertisement decision sets the flag; a row since deleted
// is out of every index and the write is moot.
func markAdv(e *table.Entry, t val.Tuple) {
	if e.Tuple.Equal(t) {
		e.Adv = true
	}
}

func (n *Node) processDelete(t val.Tuple) {
	// An unknown tuple, or one whose derivation count is still positive,
	// propagates nothing.
	if gone, _ := n.cat.Get(t.Pred).Delete(t); gone {
		n.afterDelete(t)
	}
}

// afterDelete propagates the retraction of a tuple that has left its
// table: aggregate removal (with fallback re-advertisement under
// aggregate selections) and count-algorithm deletion strands.
func (n *Node) afterDelete(t val.Tuple) {
	if n.opts.OnStore != nil {
		n.opts.OnStore(n.id, Deletion(t), n.now)
	}
	n.runAggStrands(t, val.Tuple{}, noLimit, noLimit)

	// Count-algorithm cancellation: run the deletion through every
	// strand with unrestricted joins. This cancels both the derivations
	// this tuple triggered and those where it joined later triggers as a
	// partner. For tuples whose trigger strands were suppressed by
	// aggregate selections, some emitted retractions correspond to
	// derivations that never fired — those arrive at tuples that were
	// never stored and are exact no-ops, because the head tuples of
	// aggregate-selected programs (path vectors) functionally determine
	// their derivation.
	n.runNormalStrands(-1, t, noLimit, noLimit)
	n.readvertiseGroups(t)
}

// readvertiseGroups is the aggregate-selection fallback after t left its
// groups: a group's best may now be a stored tuple that was never
// advertised.
func (n *Node) readvertiseGroups(t val.Tuple) {
	for _, c := range n.sels[t.Pred] {
		if n.periodic {
			n.addPending(c, t)
			continue
		}
		n.readvertiseBest(c, n.groupKey(c, t))
	}
}

// readvertiseBest advertises the stored group-best tuple if none is
// advertised yet. Only one representative per group runs its trigger
// strands — matching immediate mode, where ties beyond the first
// improvement are suppressed. The representative is the best-valued tuple
// with the lowest stamp, ties (one SN round shares a stamp) broken by
// val.Tuple.Compare, so the choice does not depend on bucket
// order. The group's bucket is walked in place, filtering hash collisions
// as Index.Match does; nothing is allocated.
func (n *Node) readvertiseBest(c *selControl, groupKey []val.Value) {
	best, ok := c.state.agg.Current(groupKey)
	if !ok {
		return
	}
	var pick *table.Entry
	b := c.idx.Bucket(val.HashValues(groupKey))
	for i, m := 0, b.Len(); i < m; i++ {
		e := b.At(i)
		if !c.idx.Matches(e, groupKey) || !e.Tuple.Fields[c.sel.ValueCol].Equal(best) {
			continue
		}
		if e.Adv {
			return // a best-valued tuple is already advertised
		}
		if pick == nil || e.Stamp < pick.Stamp || e.Stamp == pick.Stamp && e.Tuple.Compare(pick.Tuple) < 0 {
			pick = e
		}
	}
	if pick == nil {
		return
	}
	pick.Adv = true
	// Original stamp bounds: later-arriving partners already joined this
	// tuple when they were deltas, so replaying with the old bounds derives
	// each pair exactly once.
	n.runNormalStrands(+1, pick.Tuple, int64(pick.Stamp), int64(pick.Stamp))
}

// FlushPending advertises the current best of every pending group
// (periodic aggregate selections). Cluster calls it on its
// ClusterConfig.AggSelPeriod timer.
// Source predicates flush in name order and each control's groups in
// sorted hash order (hashing is deterministic), so the deltas a flush
// queues are the same on every run.
func (n *Node) FlushPending() {
	for _, pred := range slices.Sorted(maps.Keys(n.sels)) {
		for _, c := range n.sels[pred] {
			hashes := make([]uint64, 0, len(c.pending))
			for h := range c.pending {
				hashes = append(hashes, h)
			}
			slices.Sort(hashes)
			pending := c.pending
			c.pending = map[uint64][][]val.Value{}
			for _, h := range hashes {
				for _, key := range pending[h] {
					n.readvertiseBest(c, key)
				}
			}
		}
	}
}

// PendingGroups reports how many groups await a periodic flush.
func (n *Node) PendingGroups() int {
	total := 0
	for _, ctrls := range n.sels {
		for _, c := range ctrls {
			for _, chain := range c.pending {
				total += len(chain)
			}
		}
	}
	return total
}

// runAggStrands routes a delta through the aggregate rules it feeds and
// enqueues the resulting aggregate output changes locally. The delta is a
// retraction (del), an insertion (ins) or, with both, a key replacement;
// the absent half is the zero Tuple. Each rule nets its group changes
// over the whole delta (aggRun.pend), so a replacement's two halves are
// one window. The insertion's join stamp bounds mirror the normal
// strands so that multi-atom aggregate rules (e.g. SP3-SD joining
// magicDst with pathDst) count each contribution exactly once. It
// reports whether the insertion improved (became the current value of)
// at least one aggregate group, and whether it contributed to any
// aggregate at all — a tuple feeding no group gives aggregate selections
// nothing to prune on and must stay advertised.
func (n *Node) runAggStrands(del, ins val.Tuple, ltBefore, leAfter int64) (improving, contributed bool) {
	hasDel, hasIns := del.Pred != "", ins.Pred != ""
	pred := ins.Pred
	if !hasIns {
		pred = del.Pred
	}
	strands := n.prog.strands[pred]
	if !slices.ContainsFunc(strands, func(st *strand) bool { return st.isAgg }) {
		return false, false
	}
	ar := &n.aggRun
	if ar.emit == nil {
		ar.emit = n.aggEmit
	}
	ar.improving, ar.contributed = false, false
	silent := true
	for _, st := range strands {
		if !st.isAgg {
			continue
		}
		ar.st, ar.agg = st, n.aggs[st.rule].agg
		ar.pend, ar.fields = ar.pend[:0], ar.fields[:0]
		if hasDel {
			n.runAggHalf(-1, del, noLimit, noLimit)
		}
		if hasIns {
			n.runAggHalf(+1, ins, ltBefore, leAfter)
		}
		nf := len(st.code.head)
		for i, p := range ar.pend {
			if p.hadOld && p.hasNew && p.oldV.Equal(p.newV) {
				continue // round trip: the group ended where it started
			}
			silent = false
			fields := ar.fields[i*nf : (i+1)*nf]
			if p.hadOld {
				n.route(derived{tuple: aggHead(st, p.pred, fields, p.oldV, &n.carve), loc: p.loc}, -1, st.rule.Label)
			}
			if p.hasNew {
				n.route(derived{tuple: aggHead(st, p.pred, fields, p.newV, nil), loc: p.loc}, +1, st.rule.Label)
			}
		}
	}
	if hasDel && hasIns {
		n.netting.ReplaceWindows++
		if silent {
			n.netting.ReplaceSilent++
		}
	}
	return ar.improving, ar.contributed
}

// runAggHalf runs one signed half of runAggStrands' delta through the
// aggregate strand n.aggRun.st.
func (n *Node) runAggHalf(sign int8, t val.Tuple, ltBefore, leAfter int64) {
	ar := &n.aggRun
	ar.sign = sign
	if err := ar.st.run(n.resetCtx(sign, t, ltBefore, leAfter), t, ar.emit); err != nil {
		panic(fmt.Sprintf("engine: aggregate rule %s: %v", ar.st.rule.Label, err))
	}
}

// aggRun is the node-owned scratch of runAggStrands: the strand being
// run, the running verdicts, and the net group changes of the current
// trigger delta. The emit callback is bound once per node and reads the
// run through this struct, so an aggregate strand run allocates neither
// a closure nor its captured variables.
type aggRun struct {
	emit func(derived)
	st   *strand
	agg  *table.GroupAgg
	sign int8

	improving, contributed bool

	// pend nets the group changes across one delta's whole join — both
	// halves, when the delta is a key replacement — before anything is
	// emitted. One delta can touch a group several times (a max walking
	// up through the join results, one Add at a time; a min leaving with
	// the displaced row and coming back with its replacement); if
	// every intermediate value were routed as its own delete+insert
	// pair, each pair would fire the downstream strands — and in a
	// recursive program (Chord's lookup forwarding) re-trigger the same
	// chatter at the next hop, with a fan-out per hop equal to the number
	// of intermediate steps. That cascade is supercritical on lossy or
	// churning runs and melts a node inside one drain. Only the first old
	// -> last new transition per group is real.
	pend []aggNetChange
	// fields holds, back to back, the head fields of the derivation that
	// first changed each pend entry's group (entry i owns fields
	// [i*arity, (i+1)*arity)); the group key is those fields minus the
	// aggregate position.
	fields []val.Value
}

// aggEmit consumes one derivation of the aggregate strand n.aggRun.st.
// d.tuple.Fields is the strand's head scratch (see instantiateHead):
// everything kept past this call is copied out of it.
func (n *Node) aggEmit(d derived) {
	ar := &n.aggRun
	ar.contributed = ar.contributed || ar.sign > 0
	fields := d.tuple.Fields
	aggIdx := ar.st.aggIdx
	n.aggKeyScratch = aggKeyVals(fields, aggIdx, n.aggKeyScratch[:0])
	groupKey := n.aggKeyScratch
	value := fields[aggIdx]
	var ch table.Change
	if ar.sign > 0 {
		ch = ar.agg.Add(groupKey, value)
	} else {
		ch = ar.agg.Remove(groupKey, value)
	}
	if !ch.Changed() {
		return
	}
	// The group's post-change aggregate is ch.New; the delta "improves"
	// its group when it became that value.
	if ar.sign > 0 && ch.HasNew && ch.New.Equal(value) {
		ar.improving = true
	}
	nf := len(fields)
	for i := range ar.pend {
		if sameGroup(ar.fields[i*nf:(i+1)*nf], fields, aggIdx) {
			ar.pend[i].hasNew, ar.pend[i].newV = ch.HasNew, ch.New
			return
		}
	}
	ar.fields = append(ar.fields, fields...)
	ar.pend = append(ar.pend, aggNetChange{
		pred:   d.tuple.Pred,
		loc:    d.loc,
		hadOld: ch.HadOld, oldV: ch.Old,
		hasNew: ch.HasNew, newV: ch.New,
	})
}

// aggNetChange accumulates one aggregate group's net transition while a
// single trigger delta (a replacement counts as one) runs through an
// aggregate strand: the value before the first change and the value
// after the last one.
type aggNetChange struct {
	pred   string
	loc    string
	hadOld bool
	oldV   val.Value
	hasNew bool
	newV   val.Value
}

// sameGroup reports whether two head rows of one aggregate rule fall in
// the same group: equal everywhere but the aggregate position.
func sameGroup(a, b []val.Value, aggIdx int) bool {
	for i := range a {
		if i != aggIdx && !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// aggKeyVals extracts the group key of an aggregate head into dst:
// every field except the aggregate position, in order. The sequence
// hashes exactly like the source tuple's projection onto the
// selection's group columns (val.HashValues), which readvertiseBest
// relies on. GroupAgg copies the key when it retains it, so callers may
// pass reusable scratch.
func aggKeyVals(fields []val.Value, aggIdx int, dst []val.Value) []val.Value {
	for i, f := range fields {
		if i == aggIdx {
			continue
		}
		dst = append(dst, f)
	}
	return dst
}

// aggHead builds an aggregate head tuple: the head fields of the
// derivation that changed the group, with the aggregate value
// substituted at aggIdx — the one allocation the routed delta keeps, or
// a carving from c for a group's old value, which is only retracted.
func aggHead(st *strand, pred string, fields []val.Value, aggVal val.Value, c *val.Carver) val.Tuple {
	fs := c.Make(len(fields))
	copy(fs, fields)
	fs[st.aggIdx] = aggVal
	return val.Tuple{Pred: pred, Fields: fs}
}

// resetCtx prepares the node's reusable join context for one delta:
// insertions join under the caller's stamp bounds, deletions join
// unrestricted, carry the retracted tuple for the self-join correction,
// and carve what they derive — retractions — from the node's chunks.
// An insertion's heads bound for another node are carved too, unless
// they reach it by reference (central, byRef): the driver encodes them
// and drops them. The context holds a copy of t, not its address, so the
// caller's tuple stays off the heap.
func (n *Node) resetCtx(sign int8, t val.Tuple, ltBefore, leAfter int64) *joinCtx {
	n.jc.ltBefore, n.jc.leAfter = ltBefore, leAfter
	n.jc.hasDeleted = sign < 0
	n.jc.carve, n.jc.keepAt = nil, ""
	if sign < 0 {
		n.jc.ltBefore, n.jc.leAfter = noLimit, noLimit
		n.jc.deleted = t
		n.jc.carve = &n.carve
	} else if !n.central && !n.byRef {
		n.jc.carve, n.jc.keepAt = &n.carve, n.id
	}
	return &n.jc
}

// runNormalStrands executes the non-aggregate trigger strands for a
// delta.
func (n *Node) runNormalStrands(sign int8, t val.Tuple, ltBefore, leAfter int64) {
	ctx := n.resetCtx(sign, t, ltBefore, leAfter)
	d := Delta{Sign: sign, Tuple: t}
	for _, st := range n.prog.strands[t.Pred] {
		if st.isAgg {
			continue
		}
		if n.opts.StrandFilter != nil && !n.opts.StrandFilter(n, st.rule.Label, d) {
			continue
		}
		err := st.run(ctx, t, func(dr derived) {
			n.route(dr, sign, st.rule.Label)
		})
		if err != nil {
			panic(fmt.Sprintf("engine: rule %s: %v", st.rule.Label, err))
		}
	}
}

// route dispatches a derived delta to its location: locally enqueued or
// handed to the driver for network transmission.
func (n *Node) route(d derived, sign int8, ruleLabel string) {
	delta := Delta{Sign: sign, Tuple: d.tuple}
	if n.opts.OnDerive != nil {
		n.opts.OnDerive(n.id, ruleLabel, delta)
	}
	if n.central || d.loc == n.id {
		n.queue.push(delta)
		return
	}
	n.out = append(n.out, OutDelta{Dst: d.loc, Delta: delta})
}

// ExpireSoftState removes TTL-lapsed tuples and propagates their
// deletions (soft-state semantics, Section 4.2).
//
// A TTL can lapse while a refresh or rederivation of the same tuple is
// already sitting in the delta queue (drivers fire expiry timers between
// drains). Expiring such a
// tuple anyway would emit a retraction wave that the queued insertion
// immediately re-derives — and because soft-state duplicates refresh
// instead of counting, the interleaved +insert / -delete can cancel a
// freshly re-derived downstream row outright (a double-delete). The
// sweep therefore treats a pending insertion as the refresh it is about
// to become: the entry survives, and the queued delta renews its TTL
// when the queue drains.
//
// A table whose earliest expiry is still ahead is not scanned at all, and
// the lapsed rows of one that is leave in Stamp order (table.Expired), so
// the retractions a sweep emits do not depend on map iteration.
func (n *Node) ExpireSoftState() {
	var pending tupleSet
	indexed := false
	for _, tbl := range n.soft {
		if !tbl.ExpiryDue(n.now) {
			continue
		}
		if !indexed {
			// Index the queued insertions of soft-state predicates once
			// per sweep that has a table to scan.
			indexed = true
			for _, d := range n.queue.pending() {
				if d.Sign > 0 && n.cat.Get(d.Tuple.Pred).TTL() >= 0 {
					if pending == nil {
						pending = tupleSet{}
					}
					pending.add(d.Tuple)
				}
			}
		}
		// Remove exactly the rows the sweep reports (not a blanket
		// ExpireBefore): entries spared by a pending refresh must survive
		// with their row and index state intact.
		due := tbl.Expired(n.now, pending.has)
		for _, e := range due {
			tbl.DeleteByKey(e.Tuple)
		}
		for _, e := range due {
			n.afterDelete(e.Tuple)
		}
	}
}

// Tuples returns the live tuples of a predicate at this node, sorted.
func (n *Node) Tuples(pred string) []val.Tuple {
	return n.cat.Get(pred).Tuples()
}
