package shard

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/val"
)

// TestWorkerProtocolInProcess exercises the full control-plane protocol
// — hello/book/ready/start, idle reports and report waves, gather,
// stop/bye —
// with workers running as goroutines instead of processes. It is the
// fast (go test -short) coverage of the same code paths TestMultiProcess
// exercises across process boundaries.
func TestWorkerProtocolInProcess(t *testing.T) {
	m := &Manifest{
		Source:  figure2Source(),
		Options: Options{AggSel: true},
		Shards:  Partition([]string{"a", "b", "c", "d", "e"}, 2),
	}
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := make(chan error, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		go func() {
			done <- RunWorker(WorkerConfig{Manifest: m, ShardID: id, Coord: coord.ControlAddr()})
		}()
	}
	if err := coord.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !coord.WaitQuiescent(20 * time.Second) {
		t.Fatal("deployment did not quiesce")
	}
	if got, want := gatherKeys(t, coord), centralGroundTruth(t, m.Source); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch:\n got %v\nwant %v", got, want)
	}

	// Per-shard stats flowed over the control plane.
	stats := coord.ShardStats()
	if len(stats) != 2 {
		t.Fatalf("stats for %d shards", len(stats))
	}
	if total := coord.TotalStats(); total.SentMessages == 0 || total.Outstanding != 0 {
		t.Errorf("stats of a quiescent fleet: %+v", total)
	}

	if err := coord.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for range m.Shards {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after stop")
		}
	}
}

// TestRebalanceInProcess drives a live migration with goroutine
// workers: a node moves between shards mid-convergence under a new
// epoch, the fixpoint still matches the centralized ground truth, and
// a second rebalance moves it back.
func TestRebalanceInProcess(t *testing.T) {
	src := figure2Source()
	want := centralGroundTruth(t, src)
	m := &Manifest{
		Source:  src,
		Options: Options{AggSel: true},
		Shards:  Partition([]string{"a", "b", "c", "d", "e"}, 2),
	}
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	done := make(chan error, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		go func() {
			done <- RunWorker(WorkerConfig{Manifest: m, ShardID: id, Coord: coord.ControlAddr()})
		}()
	}
	if err := coord.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := coord.Epoch(); got != 1 {
		t.Fatalf("initial epoch = %d, want 1", got)
	}

	// Bad plans are rejected before anything quiesces.
	if _, err := coord.Rebalance(nil, time.Second); err == nil {
		t.Error("empty plan accepted")
	}
	if _, err := coord.Rebalance([]Migration{{Node: "zz", To: 1}}, time.Second); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := coord.Rebalance([]Migration{{Node: "a", To: 9}}, time.Second); err == nil {
		t.Error("unknown destination shard accepted")
	}
	if _, err := coord.Rebalance([]Migration{{Node: "a", To: coord.Owner("a")}}, time.Second); err == nil {
		t.Error("no-op migration accepted")
	}
	if _, err := coord.Rebalance([]Migration{
		{Node: "a", To: 1 - coord.Owner("a")}, {Node: "a", To: coord.Owner("a")},
	}, time.Second); err == nil {
		t.Error("double move of one node accepted")
	}

	// Mid-convergence migration: move "a" to the other shard.
	from := coord.Owner("a")
	to := 1 - from
	rep, err := coord.Rebalance([]Migration{{Node: "a", To: to}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epoch != 2 {
		t.Errorf("epoch after rebalance = %d, want 2", rep.Epoch)
	}
	if coord.Owner("a") != to {
		t.Errorf("owner of a = %d, want %d", coord.Owner("a"), to)
	}
	if rep.Pause <= 0 || rep.StateBytes <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}

	// The deployment must still converge to the central fixpoint, on
	// the first quiescence.
	if !coord.WaitQuiescent(20 * time.Second) {
		t.Fatal("deployment did not quiesce after migration")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after migration:\n got %v\nwant %v", got, want)
	}

	// Move it back: epochs keep advancing, ownership follows.
	rep2, err := coord.Rebalance([]Migration{{Node: "a", To: from}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Epoch != 3 || coord.Owner("a") != from {
		t.Errorf("second rebalance: epoch=%d owner=%d", rep2.Epoch, coord.Owner("a"))
	}
	if !coord.WaitQuiescent(20 * time.Second) {
		t.Fatal("deployment did not quiesce after second migration")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after return migration:\n got %v\nwant %v", got, want)
	}

	if err := coord.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for range m.Shards {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after stop")
		}
	}
}

// TestCoordinatorLossIsRepaired: with every worker dropping its first
// three outbound datagrams (lossFirst), the fleet still reaches the
// centralized fixpoint on the first quiescence, with no recovery call —
// the link layer's retransmissions repair the loss, and the credit holds
// quiescence off until they have.
func TestCoordinatorLossIsRepaired(t *testing.T) {
	m := &Manifest{
		Source:  figure2Source(),
		Options: Options{AggSel: true},
		Shards:  Partition([]string{"a", "b", "c", "d", "e"}, 2),
	}
	want := centralGroundTruth(t, m.Source)
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		go func() {
			done <- RunWorker(WorkerConfig{Manifest: m, ShardID: id, Coord: coord.ControlAddr(), lossFirst: 3})
		}()
	}
	if err := coord.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if !coord.WaitQuiescent(30 * time.Second) {
		t.Fatal("deployment did not quiesce")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after loss:\n got %v\nwant %v", got, want)
	}
	if st := coord.TotalStats(); st.Retransmits < 6 {
		t.Errorf("six datagrams lost but %d retransmitted (%+v)", st.Retransmits, st)
	}

	if err := coord.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for range m.Shards {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("worker: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("worker did not exit after stop")
		}
	}
}

// TestLargeTransferInProcess moves more than a datagram can carry over
// the control plane: node a holds enough base facts that a gather of
// its facts, a gather of what they derive at b, and a's exported state
// each exceed 64 KiB. Every gather before and after a rebalance of a
// must equal the centralized fixpoint.
func TestLargeTransferInProcess(t *testing.T) {
	src := `materialize(item, infinity, infinity, keys(1,2)).
materialize(peer, infinity, infinity, keys(1,2)).
materialize(copy, infinity, infinity, keys(1,2,3)).
r1 copy(@M, @N, X) :- #peer(@N, @M), item(@N, X).
peer(a, b).
`
	pad := strings.Repeat("x", 48)
	for i := 0; i < 2000; i++ {
		src += fmt.Sprintf("item(a, \"%s-%04d\").\n", pad, i)
	}
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	central, err := engine.NewCentral(prog, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	central.LoadFacts()

	m := &Manifest{Source: src, Shards: Partition([]string{"a", "b"}, 2)}
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	done := make(chan error, len(m.Shards))
	for i := range m.Shards {
		id := m.Shards[i].ID
		go func() {
			done <- RunWorker(WorkerConfig{Manifest: m, ShardID: id, Coord: coord.ControlAddr()})
		}()
	}
	if err := coord.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if !coord.WaitQuiescent(20 * time.Second) {
			t.Fatalf("%s: deployment did not quiesce", when)
		}
		for _, pred := range []string{"item", "copy"} {
			got, err := coord.Tuples(pred, 10*time.Second)
			if err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			size := 0
			for _, tu := range got {
				size += val.EncodedSize(tu)
			}
			if size <= 64<<10 {
				t.Errorf("%s: %s gathered only %d bytes", when, pred, size)
			}
			want := central.Tuples(pred)
			if len(got) != len(want) {
				t.Fatalf("%s: %s gathered %d tuples, central has %d", when, pred, len(got), len(want))
			}
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("%s: %s tuple %d = %v, central has %v", when, pred, i, got[i], want[i])
				}
			}
		}
	}
	check("before rebalance")

	rep, err := coord.Rebalance([]Migration{{Node: "a", To: coord.Owner("b")}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.StateBytes <= 64<<10 {
		t.Errorf("rebalance shipped only %d bytes of state", rep.StateBytes)
	}
	check("after rebalance")

	if err := coord.Shutdown(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for range m.Shards {
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}
}

// TestWorkerCoordinatorDeath: a worker whose coordinator vanishes must
// exit with an error instead of serving (and leaking) forever — at
// once, from the closed connection, not after the default 60 s
// coordinator timeout.
func TestWorkerCoordinatorDeath(t *testing.T) {
	m := &Manifest{
		Source:  figure2Source(),
		Options: Options{AggSel: true},
		Shards:  []ShardSpec{{ID: 0, Nodes: map[string]string{"a": "", "b": "", "c": "", "d": "", "e": ""}}},
	}
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(WorkerConfig{Manifest: m, ShardID: 0, Coord: coord.ControlAddr()})
	}()
	if err := coord.WaitReady(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	coord.Close() // coordinator dies without sending stop
	select {
	case err := <-done:
		if err == nil {
			t.Error("worker exited nil after coordinator death; want liveness error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("worker kept serving after coordinator death")
	}
}

// TestWorkerErrors covers worker misconfiguration paths.
func TestWorkerErrors(t *testing.T) {
	m := &Manifest{
		Source: figure2Source(),
		Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}},
	}
	if err := RunWorker(WorkerConfig{Manifest: m, ShardID: 9}); err == nil {
		t.Error("unknown shard id accepted")
	}
	bad := &Manifest{
		Source:  "sp1 path(@S) :- ???",
		Shards:  []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}},
		Options: Options{},
	}
	if err := RunWorker(WorkerConfig{Manifest: bad, ShardID: 0, Coord: "127.0.0.1:1"}); err == nil {
		t.Error("unparsable program accepted")
	}
	modeBad := &Manifest{
		Source:  figure2Source(),
		Shards:  []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}},
		Options: Options{Mode: "nope"},
	}
	if err := RunWorker(WorkerConfig{Manifest: modeBad, ShardID: 0, Coord: "127.0.0.1:1"}); err == nil {
		t.Error("bad mode accepted")
	}
	// Static mode (no coordinator) must reject ephemeral peer addresses:
	// there is no handshake to resolve them.
	unpinned := &Manifest{
		Source: figure2Source(),
		Shards: []ShardSpec{
			{ID: 0, Nodes: map[string]string{"a": "127.0.0.1:7101"}},
			{ID: 1, Nodes: map[string]string{"b": ""}},
		},
	}
	if err := RunWorker(WorkerConfig{Manifest: unpinned, ShardID: 0}); err == nil {
		t.Error("static mode accepted an unpinned peer address")
	}
}
