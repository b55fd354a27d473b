package netrun

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/val"
)

// localSrc derives only local rows, so a drain at the receiver sends
// nothing back and every ack it owes leaves as an ack-only frame.
const localSrc = `materialize(p, infinity, infinity, keys(1,2)).
materialize(q, infinity, infinity, keys(1,2)).
r1 q(@N, X) :- p(@N, X).
`

// TestBacklogIsOneDrain: frames that queue in a node's socket while its
// receive loop waits for the node lock are one batch. With k frames from
// each of two peers waiting, the receiver runs exactly one drain, sends
// one ack-only frame per peer, and under durability writes one WAL
// record — and keeps no journal array the batch grew past
// decodeScratch.
func TestBacklogIsOneDrain(t *testing.T) {
	const k, perFrame = 8, 5
	for _, withWAL := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", withWAL), func(t *testing.T) {
			prog, err := parser.Parse(localSrc)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(prog, []string{"a", "b", "c"}, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			dir := t.TempDir()
			if withWAL {
				if _, err := r.EnableDurability(dir, durable.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			r.Start()
			if !r.WaitQuiescent(50*time.Millisecond, 10*time.Second) {
				t.Fatal("not quiescent after the seed")
			}
			before, commits := r.Stats(), r.DurableCommits()

			c, _ := r.node("c")
			c.mu.Lock()
			for i, from := range []string{"a", "b"} {
				nn, _ := r.node(from)
				for j := 0; j < k; j++ {
					var outs []engine.OutDelta
					for x := 0; x < perFrame; x++ {
						p := val.NewTuple("p", val.NewAddr("c"), val.NewInt(int64(1000*i+10*j+x)))
						outs = append(outs, engine.OutDelta{Dst: "c", Delta: engine.Insert(p)})
					}
					nn.sendMu.Lock()
					r.dispatch(nn, outs)
					nn.sendMu.Unlock()
				}
			}
			time.Sleep(20 * time.Millisecond) // every frame reaches c's socket
			c.mu.Unlock()
			if !r.WaitQuiescent(50*time.Millisecond, 10*time.Second) {
				t.Fatal("not quiescent after the backlog")
			}

			after := r.Stats()
			if got := len(r.NodeTuples("c", "q")); got != 2*k*perFrame {
				t.Fatalf("c derived %d q rows, want %d", got, 2*k*perFrame)
			}
			if got := after.RecvMessages - before.RecvMessages; got != 2*k {
				t.Fatalf("c received %d data frames, want %d", got, 2*k)
			}
			if got := after.Drains - before.Drains; got != 1 {
				t.Errorf("the backlog took %d drains, want 1", got)
			}
			if withWAL {
				if got := r.DurableCommits() - commits; got != 1 {
					t.Errorf("the backlog took %d WAL commits, want 1", got)
				}
				c.mu.Lock()
				if n := cap(c.pending); n > decodeScratch {
					t.Errorf("c keeps a journal array of %d deltas after the batch, want at most %d", n, decodeScratch)
				}
				c.mu.Unlock()
			}
			// A peer can take an ack off the credit before the sender has
			// counted it: read the count once the loops have stopped.
			r.Close()
			if got := r.Stats().AckFrames - before.AckFrames; got != 2 {
				t.Errorf("the backlog was acked by %d ack-only frames, want one per peer", got)
			}
			if withWAL {
				// Close closed c's store: what it left on disk is c's WAL.
				s, rec, err := durable.Open(filepath.Join(dir, "c"), durable.Options{})
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
				if len(rec.Records) != 1 {
					t.Errorf("c's WAL holds %d records, want 1", len(rec.Records))
				}
			}
		})
	}
}
