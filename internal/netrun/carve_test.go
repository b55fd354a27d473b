package netrun

import (
	"math/rand"
	"testing"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/programs"
	"ndlog/internal/val"
)

// TestUDPStoresNoCarvedRow: "a stored row is never carved" (DESIGN.md §3)
// over real sockets. Every drain here encodes its output, so every head
// bound for another node is carved at its sender, as is every
// retraction; the receiver decodes its own copy. After a loopback
// distance-vector cold start and one burst of link-cost updates, at
// Dijkstra's fixpoint, no node stores a row that lies in a chunk.
func TestUDPStoresNoCarvedRow(t *testing.T) {
	overlay := dvOverlay(2, 3, 3, 1)
	log := val.TrackChunks()
	defer log.Stop()
	r := dvRunner(t, overlay, true)
	defer r.Close()
	r.Start()
	settle := func(when string) {
		t.Helper()
		if !r.WaitQuiescent(100*time.Millisecond, 30*time.Second) {
			t.Fatalf("%s: runner did not go idle", when)
		}
		if wrong := dijkstraMisses(r, overlay); wrong > 0 {
			t.Fatalf("%s: %d (src,dst) pairs are not at Dijkstra's cost", when, wrong)
		}
	}
	settle("cold start")
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5; i++ {
		l := overlay.Links[rng.Intn(len(overlay.Links))]
		live, _ := overlay.Link(l.A, l.B)
		live.Cost[dvMetric] *= 0.5 + rng.Float64()
		for _, end := range [][2]string{{string(l.A), string(l.B)}, {string(l.B), string(l.A)}} {
			if err := r.Inject(end[0], engine.Insert(programs.LinkFact("link", end[0], end[1], live.Cost[dvMetric]))); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle("update burst")
	r.Close()
	if log.Len() == 0 {
		t.Fatal("no chunk was carved: the check is vacuous")
	}
	for _, nn := range r.localNodes() {
		cat := nn.node.Catalog()
		for _, name := range cat.Names() {
			for _, tp := range cat.Get(name).Tuples() {
				if log.Holds(tp) {
					t.Fatalf("node %s stores %v in a carved chunk", nn.id, tp)
				}
			}
		}
	}
}
