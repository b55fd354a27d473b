package engine

import "ndlog/internal/val"

// Netting counts what "a key replacement is one delta" (DESIGN.md §15)
// saved at a node. Plain owner-written counters, like the rest of a
// node's state: read them once the node is quiescent.
type Netting struct {
	// WireFolded is the number of retractions Drain dropped from its
	// output because the same drain's next delta for that destination
	// and primary key inserted a different tuple, which replaces the row
	// at the receiver on its own.
	WireFolded uint64
	// ReplaceWindows is the number of replacements whose two halves ran
	// through the aggregate strands as one netting window.
	ReplaceWindows uint64
	// ReplaceSilent is how many of those windows emitted no aggregate
	// change: the displaced row was not, and its replacement did not
	// become, its group's value.
	ReplaceSilent uint64
	// QueueFolded is the number of retractions the node's PSN queue
	// folded into the insertion that replaced them (Node.push).
	QueueFolded uint64
	// PairedWalks is the number of strand runs that walked both tuples of
	// a key replacement at once (Node.runPair).
	PairedWalks uint64
}

// Add accumulates b into a, counter by counter.
func (a *Netting) Add(b Netting) {
	a.WireFolded += b.WireFolded
	a.ReplaceWindows += b.ReplaceWindows
	a.ReplaceSilent += b.ReplaceSilent
	a.QueueFolded += b.QueueFolded
	a.PairedWalks += b.PairedWalks
}

// Netting returns the node's replacement-netting counters.
func (n *Node) Netting() Netting { return n.netting }

// outNet is the node-owned scratch of foldReplacements.
type outNet struct {
	// open maps the hash of a (destination, predicate, primary key) to the
	// position in the drain's output of a retraction that no later delta
	// for that hash has followed yet.
	open map[uint64]int32
	// post, when non-nil, maps every hash before lookup; tests inject a
	// truncating map to force distinct keys to collide (as table.Table).
	post func(uint64) uint64
}

// foldReplacements drops from one drain's output every retraction −a
// whose next delta for the same destination, predicate and primary key is
// an insertion +b of a different tuple: the receiver's table replaces by
// key, so +b alone leaves the row exactly as −a, +b would, whatever the
// row held before (DESIGN.md §15 has the four cases). Only predicates in
// Program.foldKeys take part. Nothing else is netted — not −a … +a, not
// +a … −a — and relative order is kept. Two keys that collide on the
// hash fold nothing.
func (n *Node) foldReplacements(out []OutDelta) []OutDelta {
	keys := n.prog.foldKeys
	// A drain with no retraction to fold (almost all of a cold start) is
	// done after this scan, and no delta before the first one matters.
	first := -1
	for i := range out {
		if d := &out[i].Delta; d.Sign < 0 && keys[d.Tuple.Pred] != nil {
			first = i
			break
		}
	}
	if first < 0 {
		return out
	}
	open := n.net.open
	if open == nil {
		open = map[uint64]int32{}
		n.net.open = open
	}
	opened, folded := 0, 0
	for j := first; j < len(out); j++ {
		o := &out[j]
		cols := keys[o.Delta.Tuple.Pred]
		if cols == nil {
			continue
		}
		h := val.Hash64(o.Delta.Tuple.HashOn(cols)).AddString(o.Delta.Tuple.Pred).AddString(o.Dst).Sum()
		if n.net.post != nil {
			h = n.net.post(h)
		}
		if i, ok := open[h]; ok {
			delete(open, h)
			if o.Delta.Sign > 0 && replaces(&out[i], o, cols) {
				out[i].Delta.Sign = 0 // dropped below
				folded++
			}
		}
		if o.Delta.Sign < 0 {
			open[h] = int32(j)
			opened++
		}
	}
	// The map never held more than opened entries. A small one is kept: a
	// node doing many small drains (an update burst) reuses it. A larger
	// one (a cold-start drain's) is left to the collector, so an idle node
	// retains a few hundred bytes at most. Measured on dv100-updates-sim:
	// kept up to keepCap entries peak_heap_mb read +0.8 %, never kept
	// allocs_per_op read +4.6 %; at this bound +0.1 % and +0.7 %.
	if opened > keepCap/8 {
		n.net.open = nil
	} else {
		clear(open)
	}
	if folded == 0 {
		return out
	}
	k := first
	for j := first; j < len(out); j++ {
		if out[j].Delta.Sign != 0 {
			out[k] = out[j]
			k++
		}
	}
	clear(out[k:])
	n.netting.WireFolded += uint64(folded)
	return out[:k]
}

// replaces reports whether insertion b takes over, at its destination,
// the row retraction a names: same destination, predicate and primary
// key (cols), different tuple.
func replaces(a, b *OutDelta, cols []int) bool {
	ta, tb := a.Delta.Tuple, b.Delta.Tuple
	if a.Dst != b.Dst || ta.Pred != tb.Pred || len(ta.Fields) != len(tb.Fields) {
		return false
	}
	for _, c := range cols {
		if c >= len(ta.Fields) || !ta.Fields[c].Equal(tb.Fields[c]) {
			return false
		}
	}
	return !ta.Equal(tb)
}
