package shard

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
)

// TestMain doubles as the worker entry point: a child process spawned
// with the shard worker environment runs its shard instead of the test
// suite. This is how the e2e test gets ≥3 real OS processes from one
// binary.
func TestMain(m *testing.M) {
	if handled, err := MaybeRunWorker(); handled {
		if err != nil {
			fmt.Fprintln(os.Stderr, "shard worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var figure2 = []struct {
	a, b string
	cost float64
}{
	{"a", "b", 5}, {"a", "c", 1}, {"c", "b", 1}, {"b", "d", 1}, {"e", "a", 1},
}

// figure2Program returns the paper's shortest-path program with the
// Figure 2 network as base facts, as source text (for manifests) and
// parsed (for ground truth).
func figure2Source() string {
	src := programs.ShortestPath("")
	for _, l := range figure2 {
		src += fmt.Sprintf("link(%s, %s, %v).\nlink(%s, %s, %v).\n", l.a, l.b, l.cost, l.b, l.a, l.cost)
	}
	return src
}

// centralGroundTruth evaluates the program single-site and returns the
// sorted shortestPath keys — the fixpoint every deployment must match.
func centralGroundTruth(t *testing.T, src string) []string {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := engine.NewCentral(prog, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadFacts()
	var keys []string
	for _, tu := range c.Tuples("shortestPath") {
		keys = append(keys, tu.Key())
	}
	sort.Strings(keys)
	return keys
}

// TestMultiProcess is the deployment-scale acceptance test: the
// Figure 2 network partitioned into 3 shards, each a real OS process
// with its own UDP sockets, must converge to the same shortest-path
// fixpoint as the centralized evaluator, then shut down cleanly.
func TestMultiProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process e2e skipped in -short mode")
	}
	src := figure2Source()
	want := centralGroundTruth(t, src)
	if len(want) == 0 {
		t.Fatal("central ground truth is empty")
	}

	m := &Manifest{
		Source:  src,
		Options: Options{AggSel: true},
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

	// Spawn one real OS process per shard: re-exec of this test binary,
	// diverted to the worker loop by TestMain.
	err = coord.Spawn(func(shardID int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// The links are reliable, so the first quiescence is the fixpoint.
	if !coord.WaitQuiescent(30 * time.Second) {
		t.Fatal("sharded deployment did not quiesce")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch:\n got %v\nwant %v", got, want)
	}

	// Real cross-process traffic must have flowed.
	stats := coord.TotalStats()
	if stats.SentMessages == 0 || stats.SentBytes == 0 {
		t.Errorf("no data-plane traffic recorded: %+v", stats)
	}
	if stats.Dropped != 0 {
		t.Errorf("%d deltas dropped (address book incomplete?)", stats.Dropped)
	}

	// Clean teardown: every worker acknowledges stop and its process
	// exits with status 0 (Shutdown errors otherwise).
	if err := coord.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestMultiProcessMigration is the elastic-deployment acceptance test:
// a 3-process deployment migrates a node between shards mid-convergence
// under a new epoch, and the final fixpoint is byte-identical to the
// centralized evaluator's.
func TestMultiProcessMigration(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process migration e2e skipped in -short mode")
	}
	src := figure2Source()
	want := centralGroundTruth(t, src)

	m := &Manifest{
		Source:  src,
		Options: Options{AggSel: true},
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
	err = coord.Spawn(func(shardID int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Mid-convergence: migrate node "c" to another shard while the
	// fleet is still deriving. Rebalance itself waits for a quiet
	// moment, moves the state, fences the old epoch, and resumes.
	from := coord.Owner("c")
	to := (from + 1) % len(m.Shards)
	rep, err := coord.Rebalance([]Migration{{Node: "c", To: to}}, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("migration c: shard %d -> %d, epoch %d, quiesce-wait %v, pause %v, %d state bytes",
		from, to, rep.Epoch, rep.QuiesceWait, rep.Pause, rep.StateBytes)
	if rep.Epoch != 2 || coord.Owner("c") != to {
		t.Fatalf("cutover bookkeeping: epoch=%d owner=%d", rep.Epoch, coord.Owner("c"))
	}
	if rep.Pause <= 0 {
		t.Fatalf("pause not measured: %+v", rep)
	}

	if !coord.WaitQuiescent(30 * time.Second) {
		t.Fatal("deployment did not quiesce after migration")
	}
	if got := gatherKeys(t, coord); !equalStrings(got, want) {
		t.Errorf("fixpoint mismatch after migration:\n got %v\nwant %v", got, want)
	}

	if err := coord.Shutdown(15 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestShutdownHungWorker: a SIGSTOPped worker can neither acknowledge
// stop nor exit, so Shutdown must escalate to SIGKILL and return within
// its deadline (plus the bounded reap grace) with an error — never hang.
func TestShutdownHungWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("process-spawning test skipped in -short mode")
	}
	m := &Manifest{
		Source:  figure2Source(),
		Options: Options{AggSel: true},
		Shards:  Partition([]string{"a", "b", "c", "d", "e"}, 1),
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
	err = coord.Spawn(func(shardID int) *exec.Cmd {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
		cmd.Stderr = os.Stderr
		return cmd
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitReady(20 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Freeze the worker: it stops reporting, acking, and exiting.
	pid := coord.cmds[0].Process.Pid
	if err := freeze(pid); errors.Is(err, errors.ErrUnsupported) {
		t.Skip("no way to freeze a process on this OS")
	} else if err != nil {
		t.Fatal(err)
	}
	// SIGSTOP is delivered asynchronously: until every thread of the
	// worker has parked, one of them can still answer the stop frame and
	// exit cleanly. Wait for the kernel to report the process stopped.
	stopped := false
	for i := 0; i < 200 && !stopped; i++ {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			break // no procfs: proceed as before
		}
		// "pid (comm) state ...": the state follows the last ')'.
		if j := strings.LastIndexByte(string(stat), ')'); j >= 0 && j+2 < len(stat) && stat[j+2] == 'T' {
			stopped = true
		}
		time.Sleep(5 * time.Millisecond)
	}

	start := time.Now()
	shutdownErr := coord.Shutdown(2 * time.Second)
	elapsed := time.Since(start)
	if shutdownErr == nil {
		t.Error("Shutdown returned nil for a frozen worker; want a kill error")
	}
	// Deadline + bounded reap grace + scheduling slack: never the
	// unbounded wait this test exists to forbid.
	if limit := 2*time.Second + killGrace + 3*time.Second; elapsed > limit {
		t.Errorf("Shutdown took %v, want < %v", elapsed, limit)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
