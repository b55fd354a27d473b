package engine

import (
	"fmt"
	"maps"
	"math"
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
	// experiment harness ("% results over time"). A key replacement is
	// reported as the displaced tuple's retraction, then the insertion.
	OnStore func(nodeID string, d Delta, now float64)
	// OnDerive observes every derived head tuple before routing, with
	// the label of the deriving rule. Used by watch(...) tracing. The
	// tuple may be carved from a shared chunk (DESIGN.md §3): a hook that
	// keeps it keeps the whole chunk alive.
	OnDerive func(nodeID, ruleLabel string, d Delta)
}

// Node is one NDlog runtime instance: the tables, aggregate state, and
// delta queue of a single network node.
type Node struct {
	id   string
	prog *Program
	opts Options
	cat  *table.Catalog
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
	// netting counts what "a replacement is one delta" saved.
	netting Netting
	// pairLabel is the scratch of a paired walk (runPair): the rule whose
	// heads emitPair routes.
	pairLabel string

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
// tuple, the row that held it when it was stored, the deadline it was
// stored with (+Inf for hard state) and, when it took the row over by
// primary key, the tuple it displaced (else the zero Tuple).
type storedRow struct {
	t   val.Tuple
	row table.Row
	dl  float64
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
	src   *table.Table // the pruned predicate's table
	idx   *table.Index // src's index on the group columns
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
	if opts.Mode == PSN && opts.AggSel {
		n.queue.orders = prog.lanes
	}
	for name, d := range prog.decls {
		n.cat.Declare(name, d.Keys, d.Lifetime, d.MaxSize)
	}
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
	n.jc.pairEmit = n.emitPair
	// One slot environment sized for the widest rule serves every strand
	// run at this node (the engine is single-threaded per node).
	n.jc.env = funcs.NewSlotEnv(prog.maxSlots)
	if opts.AggSel {
		for _, sel := range prog.aggSels {
			state := n.aggStateFor(sel)
			if state == nil {
				continue
			}
			src := n.cat.Get(sel.SrcPred)
			ctrl := &selControl{
				sel:     sel,
				state:   state,
				src:     src,
				idx:     src.EnsureIndex(sel.GroupCols),
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

// Push enqueues a delta an executor delivers: under PSN with aggregate
// selections an insertion of an ordered predicate waits in the queue's
// best-first lane (toLane), anything else in its FIFO.
func (n *Node) Push(d Delta) {
	if !n.toLane(d) {
		n.queue.push(d)
	}
}

// push enqueues a delta a strand routed to this node, under PSN folding a
// retraction and the insertion that replaces it into one replacement
// (deltaQueue.pushFold). Only fold-eligible predicates take part, and an
// insertion only while a retraction of its predicate is queued. SN rounds
// are not folded: SN stays the reference the equivalence suites hold the
// fold against. Deltas a driver delivers (Push) are not folded either:
// a retraction that arrives alone would make every insertion of its
// predicate behind it pay a lookup — 267 k of the 343 k pushes of the
// dv100 cold start, for no fold.
func (n *Node) push(d Delta) {
	if n.toLane(d) {
		return
	}
	if n.opts.Mode == PSN && (d.Sign < 0 || n.queue.folds(d.Tuple.Pred)) {
		if cols := n.prog.foldKeys[d.Tuple.Pred]; cols != nil {
			if n.queue.pushFold(d, cols) {
				n.netting.QueueFolded++
			}
			return
		}
	}
	n.queue.push(d)
}

// toLane puts d, a delta of an ordered predicate, in the queue's
// best-first lane when it is an insertion no open retraction of its
// predicate could fold, and reports whether it did (DESIGN.md §15, "In
// the queue: best value first"). Deltas on one key keep their push
// order: before any delta of an ordered predicate is queued, a lane
// holding its key moves to the FIFO whole.
func (n *Node) toLane(d Delta) bool {
	q := &n.queue
	ord := q.orderOf(d.Tuple.Pred)
	if ord < 0 {
		return false
	}
	enter := d.Sign > 0 && q.orders[ord].col < len(d.Tuple.Fields) && !q.folds(d.Tuple.Pred)
	if !enter && len(q.lane) == 0 {
		return false
	}
	var h uint32
	if q.keys != nil {
		h = q.laneHash(d.Tuple.Fields, ord)
	}
	if len(q.lane) > 0 && q.inLane(d.Tuple, ord, h) {
		q.flushLane()
		n.netting.LaneFlushes++
	}
	if !enter {
		return false
	}
	q.pushLane(d, ord, h)
	n.netting.LaneOrdered++
	return true
}

// SetJournal installs fn as the node's durability tap: every delta the
// evaluator processes on a recoverable predicate — soft state of any
// origin, or hard state no rule derives (the same notion of "cannot be
// rebuilt" as Export) — is handed to fn before it takes effect, in
// processing order. Duplicates are included: hard-state counts and
// soft-state refreshes are both replay-significant. Derived hard state
// is excluded; recovery rebuilds it by draining the replayed deltas.
// The caller installs the tap only after recovery replay has finished,
// so replayed deltas are not re-journaled. nil uninstalls.
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
	// The heads carved this drain are in out or already processed: an idle
	// node holds no chunk — neither the allocator's nor, through the join
	// context's last retracted tuple, the one it came in.
	n.carve.Reset()
	n.jc.deleted = val.Tuple{}
	clear(n.jc.pairDiff)
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
			} else if r, ok := n.storeInsert(d, n.stamp); ok {
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
	n.runNormalStrands(+1, t, never, noLimit, noLimit)
}

// never is the deadline of hard state and of a derivation with no soft
// support.
var never = math.Inf(1)

// deadline is the expiry an insertion d gets in tbl at this node's clock:
// its lifetime from now when it carries one, capped by the table's own
// TTL (-1, never, for hard state with no lifetime).
func (n *Node) deadline(tbl *table.Table, d Delta) float64 {
	exp := tbl.Deadline(n.now)
	if l := n.now + float64(d.Life); d.Life > 0 && l < never && (exp < 0 || l < exp) {
		exp = l
	}
	return exp
}

// lifeFor is the lifetime a head with the given deadline carries from
// this clock: the largest float32 whose sum with now does not pass the
// deadline, so that a row rederived through a cycle of local rules never
// outlives the row it came from by a rounding step. ok is false when
// nothing is left.
func lifeFor(now, deadline float64) (float32, bool) {
	l := float32(deadline - now)
	for l > 0 && now+float64(l) > deadline {
		l = math.Nextafter32(l, 0)
	}
	return l, l > 0
}

// headDelta builds the delta that carries head d with sign. An insertion
// with a finite deadline carries the lifetime it has left (lifeFor),
// unless it is an event, which is never stored; ok is false when that
// lifetime is spent.
func (n *Node) headDelta(d derived, sign int8) (delta Delta, ok bool) {
	delta = Delta{Sign: sign, Tuple: d.tuple}
	if sign > 0 && d.deadline < never && !n.prog.events[d.tuple.Pred] {
		if delta.Life, ok = lifeFor(n.now, d.deadline); !ok {
			return delta, false
		}
	}
	return delta, true
}

// storeInsert applies the table effects of an insertion: duplicate
// counting, primary-key replacement, and eviction. It returns the row now
// holding the tuple — with the tuple it displaced, whose retraction is
// afterStore's to propagate together with the insertion — and false when
// the tuple was a duplicate (a refresh that extends its row's deadline
// re-runs the trigger strands here).
func (n *Node) storeInsert(d Delta, stamp uint64) (storedRow, bool) {
	t := d.Tuple
	tbl := n.cat.Get(t.Pred)
	res := tbl.InsertUntil(t, stamp, n.deadline(tbl, d))
	dl := deadlineOf(res.Row.Entry())
	switch res.Status {
	case table.StatusReplaced:
		return storedRow{t: t, row: res.Row, dl: dl, old: res.Replaced}, true
	case table.StatusDuplicate:
		// Soft-state refresh semantics (Section 4.2): a duplicate that
		// moves its row's deadline later re-runs the trigger strands, so
		// the soft state downstream is extended in turn — the paper's
		// trade-off of recomputation for precise incremental deltas. A
		// refresh that extends nothing has nothing to pass on: what the
		// row supports already lives as long as the row, which is how a
		// cycle of soft rules stops (DESIGN.md "Soft state by deadline").
		// Hard-state duplicates only bump the count.
		if res.Extended {
			markAdv(res.Row, t)
			n.runNormalStrands(+1, t, dl, int64(stamp), int64(stamp))
		}
		return storedRow{}, false
	case table.StatusNew:
		for _, ev := range res.Evicted {
			if !ev.Equal(t) {
				n.afterDelete(ev)
			}
		}
		return storedRow{t: t, row: res.Row, dl: dl}, true
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
// leaves where it was emits none; then the normal strands walk both
// tuples (runReplacement) — or, when an aggregate selection prunes the
// new one, only the displaced tuple's deletion — and the group is
// checked for an unadvertised best once, at the end.
func (n *Node) afterStore(r storedRow, ltBefore, leAfter int64) {
	if n.opts.OnStore != nil {
		if r.old.Pred != "" {
			n.opts.OnStore(n.id, Deletion(r.old), n.now)
		}
		n.opts.OnStore(n.id, Insert(r.t), n.now)
	}
	improving, contributed := n.runAggStrands(r.old, r.t, ltBefore, leAfter)
	adv := n.advertises(r, improving, contributed)
	switch {
	case r.old.Pred == "":
		if adv {
			n.runNormalStrands(+1, r.t, r.dl, ltBefore, leAfter)
		}
		return
	case adv:
		n.runReplacement(r, ltBefore, leAfter)
	default:
		n.runNormalStrands(-1, r.old, never, noLimit, noLimit)
	}
	n.readvertiseGroups(r.old)
}

// advertises reports whether a newly stored tuple's trigger strands run,
// marking its row advertised if so: not when an aggregate selection
// prunes it. improving and contributed are runAggStrands' verdicts on
// its insertion.
func (n *Node) advertises(r storedRow, improving, contributed bool) bool {
	if ctrls := n.sels[r.t.Pred]; len(ctrls) > 0 && contributed {
		if n.periodic {
			// Periodic mode: defer everything to the flush timer.
			for _, c := range ctrls {
				n.addPending(c, r.t)
			}
			return false
		}
		if !improving {
			return false
		}
	}
	markAdv(r.row, r.t)
	return true
}

// runReplacement runs the normal strands of a key replacement r whose new
// tuple is advertised (DESIGN.md §15, "One walk for both halves"). A
// strand whose partners cannot tell the two tuples apart — no trigger
// binding that differs between them is read by another body atom —
// walks them once (runPair). Every other strand runs the displaced
// tuple's deletion, and only after all of them the new tuple's
// insertion, as the two halves of an update always ran. Soft state
// always takes the halves: its heads never fold.
func (n *Node) runReplacement(r storedRow, ltBefore, leAfter int64) {
	strands := n.prog.strands[r.t.Pred]
	pairing := r.dl == never && n.opts.StrandFilter == nil
	var paired uint64 // bit i: strands[i] walks both tuples at once
	for i, st := range strands {
		if st.isAgg {
			continue
		}
		if pairing && i < 64 && st.pairable(r.old, r.t) {
			paired |= 1 << i
			continue
		}
		n.runStrand(st, -1, r.old, never, noLimit, noLimit)
	}
	for i, st := range strands {
		if st.isAgg {
			continue
		}
		if paired&(1<<i) != 0 {
			if n.runPair(st, r, ltBefore, leAfter) {
				continue
			}
			n.runStrand(st, -1, r.old, never, noLimit, noLimit)
		}
		n.runStrand(st, +1, r.t, r.dl, ltBefore, leAfter)
	}
}

// runPair walks strand st once for both tuples of replacement r
// (strand.runPair): each partner derives the displaced tuple's head under
// a deletion's unrestricted join and the new tuple's under the
// insertion's stamp bounds and deadline, and emitPair routes what the
// pair comes to. It reports false, having derived nothing, when a tuple
// does not unify with the trigger; the caller then runs the halves.
func (n *Node) runPair(st *strand, r storedRow, ltBefore, leAfter int64) bool {
	ctx := n.resetCtx(+1, r.t, r.dl, ltBefore, leAfter)
	// A deletion's join for the displaced half: no partner lapses, and the
	// self-join correction names the trigger's predicate, which a pairable
	// strand joins nowhere else.
	ctx.pair, ctx.hasDeleted, ctx.deleted, ctx.pairCarve = true, true, r.old, &n.carve
	n.pairLabel = st.rule.Label
	ok, err := st.runPair(ctx, r.old, r.t)
	ctx.pair = false
	if err != nil {
		panic(fmt.Sprintf("engine: rule %s: %v", st.rule.Label, err))
	}
	if ok {
		n.netting.PairedWalks++
	}
	return ok
}

// emitPair routes one partner's two heads from a paired walk: the
// displaced tuple's (old, a retraction) and the new tuple's (w, an
// insertion), each present or not. Two hard heads bound for one place
// under one fold-eligible key, and different, come to +w alone: it
// replaces old's row at the destination exactly as −old, +w would
// (DESIGN.md §15's table). Anything else goes out as both halves —
// equal heads too: cancelling them is sound only if old's head was sent,
// which a row an aggregate selection pruned never did (the "−a … +a"
// trap).
func (n *Node) emitPair(old, w derived, hasOld, hasNew bool) {
	label := n.pairLabel
	if hasOld && hasNew && old.loc == w.loc && w.deadline == never {
		if cols := n.prog.foldKeys[w.tuple.Pred]; cols != nil && sameKey(old.tuple, w.tuple, cols) && !old.tuple.Equal(w.tuple) {
			n.route(w, +1, label)
			return
		}
	}
	if hasOld {
		n.route(old, -1, label)
	}
	if hasNew {
		n.route(w, +1, label)
	}
}

// markAdv records that t's trigger strands have run, on the row t was
// stored in — the table hashed the tuple once, at Insert, and handed the
// row back. A row since reused by a key replacement holds another tuple,
// whose own advertisement decision sets the flag. A row since deleted
// resolves to nil, even when its slot has been refilled with t: that is
// a new row, whose strands this run did not cover (a delete and a
// re-insert of t between t's store and its afterStore, as one SN round
// can hold), so it must not inherit the flag.
func markAdv(r table.Row, t val.Tuple) {
	if e := r.Entry(); e != nil && val.ValuesEqual(e.Fields, t.Fields) {
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
	n.runNormalStrands(-1, t, never, noLimit, noLimit)
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
	for b := c.idx.Bucket(val.HashValues(groupKey)); ; {
		e := b.Next()
		if e == nil {
			break
		}
		if !c.idx.Matches(e, groupKey) || !e.Fields[c.sel.ValueCol].Equal(best) {
			continue
		}
		if e.Adv {
			return // a best-valued tuple is already advertised
		}
		if pick == nil || e.Stamp < pick.Stamp || e.Stamp == pick.Stamp && c.src.Tuple(e).Compare(c.src.Tuple(pick)) < 0 {
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
	n.runNormalStrands(+1, c.src.Tuple(pick), deadlineOf(pick), int64(pick.Stamp), int64(pick.Stamp))
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
			// A group's new value under a fold-eligible key replaces its
			// old one by itself (DESIGN.md §15's table).
			if p.hadOld && !(p.hasNew && st.aggFolds) {
				n.route(derived{tuple: aggHead(st, p.pred, fields, p.oldV, &n.carve), loc: p.loc, deadline: never}, -1, st.rule.Label)
			}
			if p.hasNew {
				// An aggregate head keeps its table's own lifetime: the
				// expiries of its inputs maintain it.
				n.route(derived{tuple: aggHead(st, p.pred, fields, p.newV, nil), loc: p.loc, deadline: never}, +1, st.rule.Label)
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
	if err := ar.st.run(n.resetCtx(sign, t, never, ltBefore, leAfter), t, ar.emit); err != nil {
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
// insertions join under the caller's stamp bounds from the trigger's
// deadline dl, deletions join unrestricted, carry the retracted tuple
// for the self-join correction, and carve what they derive — retractions
// — from the node's chunks. An insertion's heads bound for another node
// are carved too, unless they reach it by reference (central, byRef):
// the driver encodes them and drops them. The context holds a copy of t,
// not its address, so the caller's tuple stays off the heap.
func (n *Node) resetCtx(sign int8, t val.Tuple, dl float64, ltBefore, leAfter int64) *joinCtx {
	n.jc.ltBefore, n.jc.leAfter = ltBefore, leAfter
	n.jc.deadline, n.jc.now = dl, n.now
	n.jc.hasDeleted = sign < 0
	n.jc.carve, n.jc.keepAt = nil, ""
	n.jc.pair = false
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
// delta whose trigger row has deadline dl.
func (n *Node) runNormalStrands(sign int8, t val.Tuple, dl float64, ltBefore, leAfter int64) {
	for _, st := range n.prog.strands[t.Pred] {
		if !st.isAgg {
			n.runStrand(st, sign, t, dl, ltBefore, leAfter)
		}
	}
}

// runStrand executes one non-aggregate strand for a delta, unless the
// StrandFilter skips it.
func (n *Node) runStrand(st *strand, sign int8, t val.Tuple, dl float64, ltBefore, leAfter int64) {
	if n.opts.StrandFilter != nil && !n.opts.StrandFilter(n, st.rule.Label, Delta{Sign: sign, Tuple: t}) {
		return
	}
	err := st.run(n.resetCtx(sign, t, dl, ltBefore, leAfter), t, func(dr derived) {
		n.route(dr, sign, st.rule.Label)
	})
	if err != nil {
		panic(fmt.Sprintf("engine: rule %s: %v", st.rule.Label, err))
	}
}

// route dispatches a derived delta to its location: locally enqueued or
// handed to the driver for network transmission.
func (n *Node) route(d derived, sign int8, ruleLabel string) {
	delta, ok := n.headDelta(d, sign)
	if !ok {
		return
	}
	if n.opts.OnDerive != nil {
		n.opts.OnDerive(n.id, ruleLabel, delta)
	}
	if n.central || d.loc == n.id {
		n.push(delta)
		return
	}
	n.out = append(n.out, OutDelta{Dst: d.loc, Delta: delta})
}

// ExpireSoftState removes the rows whose deadline has lapsed (soft-state
// semantics, Section 4.2). A lapsed row leaves with aggregate
// maintenance and the aggregate-selection fallback only: what it
// supported was derived with a deadline no later than its own, so it
// lapses on its own, wherever it is stored, and the sweep sends nothing
// (DESIGN.md "Soft state by deadline"). OnStore still sees each row go.
//
// Every table whose earliest deadline has come is swept, in name order —
// a table no declaration made soft holds soft rows when their support is
// soft — and a table's lapsed rows leave in Stamp order (table.Expired),
// so what a sweep does is a function of the node's history.
func (n *Node) ExpireSoftState() {
	for _, tbl := range n.cat.Tables() {
		due := tbl.Expired(n.now)
		for _, t := range due {
			tbl.DeleteByKey(t)
		}
		for _, t := range due {
			if n.opts.OnStore != nil {
				n.opts.OnStore(n.id, Deletion(t), n.now)
			}
			n.runAggStrands(t, val.Tuple{}, noLimit, noLimit)
			n.readvertiseGroups(t)
		}
	}
}

// Tuples returns the live tuples of a predicate at this node, sorted.
func (n *Node) Tuples(pred string) []val.Tuple {
	return n.cat.Get(pred).Tuples()
}
