package shard

import (
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// gatherKeys collects the deployment's shortestPath keys, sorted.
func gatherKeys(t *testing.T, coord *Coordinator) []string {
	t.Helper()
	tuples, err := coord.Tuples("shortestPath", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(tuples))
	for _, tu := range tuples {
		keys = append(keys, tu.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestCrashRecovery is the durability acceptance test: a worker process
// is kill -9'd mid-deployment and respawned warm from its WAL +
// snapshot directory; the fleet must detect the death, fence the dead
// sockets under a new epoch, rebuild the cross-node derived state with
// targeted rederivation sweeps, and reach the fixpoint byte-identical
// to the centralized evaluator — with no coordinator reseed anywhere.
func TestCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process crash e2e skipped in -short mode")
	}
	src := figure2Source()
	want := centralGroundTruth(t, src)

	dataDir := filepath.Join(t.TempDir(), "data")
	m := &Manifest{
		Source:  src,
		Options: Options{AggSel: true, DataDir: dataDir},
		Shards:  Partition([]string{"a", "b", "c", "d", "e"}, 3),
	}
	manifestPath := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Save(manifestPath); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(m)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	build := func(shardID int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
		cmd.Stderr = os.Stderr
		return cmd
	}
	if err := coord.Spawn(build); err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Converge once so the WALs hold real state before the crash.
	if !coord.WaitQuiescent(30 * time.Second) {
		t.Fatal("deployment did not quiesce before crash")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Fatalf("no pre-crash fixpoint:\n got %v\nwant %v", got, want)
	}

	// kill -9 one worker: no bye, no flush beyond what WAL-before-wire
	// already guaranteed, sockets drop mid-epoch.
	victim := coord.Owner("c")
	if err := coord.procs[victim].cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	// Liveness detection: the victim's control connection closes. The
	// silence window is far beyond the test, so only the close counts.
	deadline := time.Now().Add(10 * time.Second)
	for {
		dead := coord.DeadWorkers(time.Hour)
		if len(dead) == 1 && dead[0] == victim {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim %d not detected dead (got %v)", victim, dead)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Respawn warm from <dataDir>/shard-<victim>: snapshot + WAL replay,
	// epoch cutover, rederivation sweeps.
	if err := coord.Respawn(victim, build, 60*time.Second); err != nil {
		t.Fatalf("respawn: %v", err)
	}
	if got := coord.Epoch(); got != 2 {
		t.Errorf("epoch after respawn = %d, want 2", got)
	}

	// The fleet must reach the central fixpoint again on the first
	// quiescence, with no reseed or recovery call — the respawn path, not
	// a fleet-wide restart, is under test.
	if !coord.WaitQuiescent(30 * time.Second) {
		t.Fatal("deployment did not quiesce after respawn")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after crash recovery:\n got %v\nwant %v", got, want)
	}
	if st := coord.TotalStats(); st.Outstanding != 0 {
		t.Errorf("quiescent fleet still owes acks or drains: %+v", st)
	}

	if err := coord.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDurableRebalanceInProcess drives a live migration on a durable
// deployment: the moved node's state ships as a snapshot+WAL bundle,
// both shards' persisted node sets follow the move (so a crashed worker
// respawns with post-migration ownership), and the fixpoint still
// matches the centralized ground truth.
func TestDurableRebalanceInProcess(t *testing.T) {
	src := figure2Source()
	want := centralGroundTruth(t, src)
	dataDir := filepath.Join(t.TempDir(), "data")
	m := &Manifest{
		Source:  src,
		Options: Options{AggSel: true, DataDir: dataDir},
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

	from := coord.Owner("a")
	to := 1 - from
	rep, err := coord.Rebalance([]Migration{{Node: "a", To: to}}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("durable migration a: shard %d -> %d, pause %v, %d state bytes",
		from, to, rep.Pause, rep.StateBytes)
	if rep.StateBytes <= 0 {
		t.Errorf("degenerate report: %+v", rep)
	}

	if !coord.WaitQuiescent(20 * time.Second) {
		t.Fatal("deployment did not quiesce after migration")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after durable migration:\n got %v\nwant %v", got, want)
	}

	// The persisted node sets follow the move: a respawn of either shard
	// would recover post-migration ownership.
	fromNodes, err := loadNodeSet(filepath.Join(dataDir, "shard-"+string(rune('0'+from))))
	if err != nil {
		t.Fatal(err)
	}
	toNodes, err := loadNodeSet(filepath.Join(dataDir, "shard-"+string(rune('0'+to))))
	if err != nil {
		t.Fatal(err)
	}
	if _, still := fromNodes["a"]; still {
		t.Errorf("shard %d still persists node a: %v", from, fromNodes)
	}
	if _, moved := toNodes["a"]; !moved {
		t.Errorf("shard %d does not persist node a: %v", to, toNodes)
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
