package engine

// Node state export/import for live migration. A node moving between
// shard processes (internal/shard Rebalance) ships only the state that
// cannot be rebuilt at the destination: base (EDB) hard-state tuples
// with their derivation counts, and soft-state tuples with their
// remaining lifetimes. Derived hard state is a view — the importer
// re-derives it from the imported facts (Rederive, a full-evaluation
// sweep of every rule) and from the fleet-wide reseed that follows a
// migration, instead of trusting shipped view contents whose supporting
// facts live on other nodes.

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"ndlog/internal/table"
	"ndlog/internal/val"
)

// ExportedTuple is one migratable tuple of a node's state.
type ExportedTuple struct {
	Tuple val.Tuple
	// Count is the derivation count (hard state). Soft state exports 1:
	// refresh semantics replace counting there (Section 4.2).
	Count int
	// Remaining is the tuple's remaining soft-state lifetime in seconds
	// at export time; < 0 marks hard state. The importer drops tuples
	// whose lifetime lapsed in transit and re-inserts the rest with the
	// lifetime they had left (Delta.Life).
	Remaining float64
}

// NodeState is the migratable state of one node.
type NodeState struct {
	NodeID string
	Tuples []ExportedTuple
}

// Export snapshots the node's migratable state: base hard-state tuples
// (predicates no rule derives) with derivation counts, plus every
// soft-state tuple with its remaining TTL against the node's current
// virtual clock. Tuples are sorted, so equal states encode byte-equal.
// Drivers must call it under the node's single-threading discipline.
//
// Constraint: base facts seeded into a predicate that also appears as
// a rule head are indistinguishable from derived rows and are NOT
// exported — such programs are not migration-safe. The paper's
// programs keep EDB and IDB predicates disjoint, which is what this
// relies on.
func (n *Node) Export() *NodeState {
	st := &NodeState{NodeID: n.id}
	for _, name := range n.cat.Names() {
		tbl := n.cat.Get(name)
		soft := tbl.TTL() >= 0
		if !soft && n.prog.derived[name] {
			continue // derived hard state: rederived at the destination
		}
		tbl.Scan(func(e *table.Entry) bool {
			et := ExportedTuple{Tuple: e.Tuple, Count: e.Count, Remaining: -1}
			if soft {
				et.Count = 1
				et.Remaining = e.Expires - n.now
				if et.Remaining < 0 {
					et.Remaining = 0
				}
			}
			st.Tuples = append(st.Tuples, et)
			return true
		})
	}
	sort.Slice(st.Tuples, func(i, j int) bool {
		return st.Tuples[i].Tuple.Compare(st.Tuples[j].Tuple) < 0
	})
	return st
}

// ImportState queues an exported state for insertion at this node and
// reports how many tuples were accepted. Hard-state counts are replayed
// as repeated insertions (duplicates bump the count, per the count
// algorithm); a soft-state tuple enters carrying the lifetime it had
// left at export, so it lapses at import time + Remaining, and what the
// import derives from it lapses no later. Tuples already lapsed at export
// (Remaining == 0) are dropped. Transit time is not subtracted (no
// cross-process clock to measure it with); it is bounded by the
// rebalance pause. The caller runs Drain (and typically Rederive)
// afterwards.
func (n *Node) ImportState(st *NodeState) int {
	imported := 0
	for _, et := range st.Tuples {
		d := Insert(et.Tuple)
		if et.Remaining >= 0 {
			life, ok := lifeFor(0, et.Remaining)
			if !ok {
				continue // soft state that expired in transit
			}
			d.Life = life
		}
		for range max(et.Count, 1) {
			n.Push(d)
		}
		imported++
	}
	return imported
}

// tupleSet is a set of tuples keyed by Tuple.Hash with collision chains
// resolved by Tuple.Equal — the engine-side counterpart of the storage
// layer's hash-first keying (no string keys).
type tupleSet map[uint64][]val.Tuple

func (s tupleSet) has(t val.Tuple) bool {
	for _, u := range s[t.Hash()] {
		if u.Equal(t) {
			return true
		}
	}
	return false
}

// add inserts t, reporting whether it was newly added.
func (s tupleSet) add(t val.Tuple) bool {
	h := t.Hash()
	for _, u := range s[h] {
		if u.Equal(t) {
			return false
		}
	}
	s[h] = append(s[h], t)
	return true
}

// sweepDerivable evaluates every non-aggregate rule once over the
// node's stored state — a full evaluation, not a delta — invoking fn
// for each derivable head (with its location and deadline), rule by rule
// in the program's fixed sweep order, each rule's first atom's rows in
// Tuple order. Evaluation errors skip the binding, as the insert path
// would. fn must not mutate the node's tables; queueing deltas is fine.
func (n *Node) sweepDerivable(fn func(d derived)) {
	ctx := &joinCtx{ltBefore: noLimit, leAfter: noLimit, res: n.res, now: n.now}
	var rows []*table.Entry
	for _, st := range n.prog.sweep {
		rows = rows[:0]
		n.cat.Get(st.atoms[0].Pred).Scan(func(e *table.Entry) bool {
			rows = append(rows, e)
			return true
		})
		slices.SortFunc(rows, func(a, b *table.Entry) int { return a.Tuple.Compare(b.Tuple) })
		for _, e := range rows {
			ctx.deadline = deadlineOf(e)
			_ = st.run(ctx, e.Tuple, fn)
		}
	}
}

// Rederive runs one rederivation sweep over the node's stored state
// and enqueues every locally-homed derivable head the node does not
// already store. It is the post-import closure check of a migration:
// anything the imported facts support locally but the import's own
// drain did not reach is re-derived here. Remote heads are not
// re-routed (the import drain already advertised them). Returns the
// number of heads enqueued; the caller drains.
func (n *Node) Rederive() int {
	count := 0
	seen := tupleSet{}
	n.sweepDerivable(func(d derived) {
		if !n.central && d.loc != n.id {
			return
		}
		if n.cat.Get(d.tuple.Pred).Contains(d.tuple) {
			return
		}
		if delta, ok := n.headDelta(d, +1); ok && seen.add(d.tuple) {
			n.Push(delta)
			count++
		}
	})
	return count
}

// RederiveFor sweeps the node's stored state (the same full-rule
// evaluation as Rederive) and returns every derivable head homed at
// one of the dst nodes — one OutDelta per live derivation, so a
// freshly migrated destination reconstructs exact derivation counts.
// This is the neighbor-side half of a migration: a moved node's
// incoming derived state (including the localizer's shipped copies)
// lives in its neighbors' join state, and hard-state duplicates do
// not re-trigger strands, so only an explicit sweep can rebuild it.
// Aggregate heads are not swept; the paper's programs home aggregates
// where their inputs live, so they rebuild incrementally from the
// swept inputs.
func (n *Node) RederiveFor(dsts map[string]bool) []OutDelta {
	if len(dsts) == 0 || dsts[n.id] {
		return nil
	}
	var out []OutDelta
	n.sweepDerivable(func(d derived) {
		if !dsts[d.loc] || d.loc == n.id {
			return
		}
		if delta, ok := n.headDelta(d, +1); ok {
			out = append(out, OutDelta{Dst: d.loc, Delta: delta})
		}
	})
	return out
}

// stateMagic tags an encoded NodeState payload, disjoint from the data
// message kinds (msgDeltas, msgShared) so a state blob mis-fed to a
// data decoder is rejected as corrupt, and vice versa.
const stateMagic = 0x4E

// maxImportCount bounds a single exported tuple's derivation count on
// decode (see DecodeState): far beyond any real count, far below a
// replay loop that could wedge a worker.
const maxImportCount = 1 << 20

// EncodeState marshals st on the val wire encoding:
//
//	state := magic(0x4E) node(string) n(uvarint) entry*
//	entry := flags(byte; bit0 = soft) count(uvarint)
//	         [remaining(uvarint: float64 bits) if soft] tuple
func EncodeState(st *NodeState) []byte {
	buf := []byte{stateMagic}
	buf = val.AppendString(buf, st.NodeID)
	buf = binary.AppendUvarint(buf, uint64(len(st.Tuples)))
	for _, et := range st.Tuples {
		flags := byte(0)
		if et.Remaining >= 0 {
			flags |= 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, uint64(et.Count))
		if et.Remaining >= 0 {
			buf = binary.AppendUvarint(buf, math.Float64bits(et.Remaining))
		}
		buf = val.AppendTuple(buf, et.Tuple)
	}
	return buf
}

// DecodeState unmarshals an encoded NodeState. Decoded tuples never
// alias b (val's copy-on-decode invariant). Preallocation is capped by
// the remaining payload, so a corrupt header cannot drive a huge make.
func DecodeState(b []byte) (*NodeState, error) {
	if len(b) == 0 || b[0] != stateMagic {
		return nil, fmt.Errorf("engine: not a node-state payload")
	}
	b = b[1:]
	id, sz, err := val.DecodeString(b)
	if err != nil {
		return nil, fmt.Errorf("engine: corrupt node-state id: %w", err)
	}
	b = b[sz:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("engine: corrupt node-state count")
	}
	b = b[sz:]
	st := &NodeState{NodeID: id, Tuples: make([]ExportedTuple, 0, min(n, uint64(len(b))))}
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return nil, fmt.Errorf("engine: truncated node-state payload")
		}
		flags := b[0]
		b = b[1:]
		count, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, fmt.Errorf("engine: corrupt node-state entry count")
		}
		// ImportState replays the count as repeated insertions; an
		// unauthenticated or corrupt blob must not be able to demand an
		// unbounded replay loop.
		if count > maxImportCount {
			return nil, fmt.Errorf("engine: node-state count %d exceeds limit", count)
		}
		b = b[sz:]
		et := ExportedTuple{Count: int(count), Remaining: -1}
		if flags&1 != 0 {
			bits, sz := binary.Uvarint(b)
			if sz <= 0 {
				return nil, fmt.Errorf("engine: corrupt node-state lifetime")
			}
			b = b[sz:]
			et.Remaining = math.Float64frombits(bits)
			if !(et.Remaining >= 0) { // also rejects NaN
				return nil, fmt.Errorf("engine: negative node-state lifetime")
			}
		}
		t, m, err := val.DecodeTuple(b)
		if err != nil {
			return nil, fmt.Errorf("engine: bad tuple in node state: %w", err)
		}
		b = b[m:]
		et.Tuple = t
		st.Tuples = append(st.Tuples, et)
	}
	return st, nil
}
