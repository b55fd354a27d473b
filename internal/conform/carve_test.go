package conform

import (
	"testing"

	"ndlog/internal/engine"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// Tests for "a stored row is never carved" (DESIGN.md §3): retractions
// are carved from shared chunks that one live carving keeps whole, so a
// table that kept a carved row — a retraction stored, or an insertion
// carved — would pin chunks for as long as the row lives. The property
// runs record every chunk (val.TrackChunks) and then walk every table.

// assertNoCarvedRow fails if any row stored at any of nodes, or any list
// inside one, lies in a chunk that log recorded.
func assertNoCarvedRow(t *testing.T, log *val.ChunkLog, label string, nodes ...*engine.Node) {
	t.Helper()
	for _, n := range nodes {
		cat := n.Catalog()
		for _, name := range cat.Names() {
			for _, tp := range cat.Get(name).Tuples() {
				if log.Holds(tp) {
					t.Fatalf("%s: node %s stores %v in a carved chunk", label, n.ID(), tp)
				}
			}
		}
	}
}

// TestChordStoresNoCarvedRow runs the soft-state workload — a 32-node
// ring with TTL expiry, refresh and stabilisation churning retractions —
// to a converged ring and checks that no node stores a carved row.
func TestChordStoresNoCarvedRow(t *testing.T) {
	o := DefaultChordOpts(1)
	o.Nodes, o.Reserve = 32, 2
	log := val.TrackChunks()
	defer log.Stop()
	r, err := NewChordRun(o)
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(30)
	if !awaitRing(t, r, 240) {
		t.Fatalf("ring never converged (%d live nodes)", len(r.liveNames()))
	}
	verifyLookups(t, r, 8)
	if log.Len() == 0 {
		t.Fatal("no chunk was carved: the check is vacuous")
	}
	var nodes []*engine.Node
	for _, id := range r.Net.Sim.Nodes() {
		nodes = append(nodes, r.Net.Cluster.Node(simnet.NodeID(id)))
	}
	assertNoCarvedRow(t, log, "chord", nodes...)
}
