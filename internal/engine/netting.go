package engine

// Netting counts what "a key replacement is one delta" (DESIGN.md §15)
// saved at a node, and how its best-first lane ran. Plain owner-written counters, like the rest of a
// node's state: read them once the node is quiescent.
type Netting struct {
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
	// LaneOrdered is the number of insertions that waited in the node's
	// best-first lane (Node.toLane).
	LaneOrdered uint64
	// LaneFlushes is the number of times a delta on a key the lane held
	// moved the whole lane into the FIFO first.
	LaneFlushes uint64
	// LaneSkipped is the number of insertions of an ordered predicate
	// that took the FIFO because their group's value already dominated
	// them (Node.dominated).
	LaneSkipped uint64
}

// Add accumulates b into a, counter by counter.
func (a *Netting) Add(b Netting) {
	a.ReplaceWindows += b.ReplaceWindows
	a.ReplaceSilent += b.ReplaceSilent
	a.QueueFolded += b.QueueFolded
	a.PairedWalks += b.PairedWalks
	a.LaneOrdered += b.LaneOrdered
	a.LaneFlushes += b.LaneFlushes
	a.LaneSkipped += b.LaneSkipped
}

// Netting returns the node's replacement-netting counters.
func (n *Node) Netting() Netting { return n.netting }
