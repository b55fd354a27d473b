package shard

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/experiments"
	"ndlog/internal/netrun"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/topology"
)

// fig7Workload builds the Figure 7 workload as deployable source text:
// the shortest-path program under the latency metric on the scaled-down
// transit-stub overlay (14 nodes) used by the root Fig 7 benchmarks.
// Returns the program source (facts inline, so a manifest carries the
// whole workload) and the node population.
func fig7Workload() (string, []string) {
	o := experiments.BuildOverlay(experiments.Small())
	src := programs.ShortestPath("")
	for _, l := range o.Links {
		c := strconv.FormatFloat(l.Cost[topology.Latency], 'f', -1, 64)
		src += fmt.Sprintf("link(%s, %s, %s).\n", l.A, l.B, c)
		src += fmt.Sprintf("link(%s, %s, %s).\n", l.B, l.A, c)
	}
	ids := make([]string, len(o.Nodes))
	for i, n := range o.Nodes {
		ids[i] = string(n)
	}
	return src, ids
}

// BenchmarkNetrunFig7 converges the Fig 7 workload in a single process:
// every node its own UDP socket, one OS process — the PR 3 baseline
// netrun deployment. Compare with BenchmarkSharded3Fig7.
func BenchmarkNetrunFig7(b *testing.B) {
	benchNetrunFig7(b, true, false)
}

// BenchmarkNetrunFig7NoPrune is the drain-bound variant: aggregate
// selections off, so every node's queue carries the full unpruned path
// exploration (~17k datagrams vs ~350 pruned).
func BenchmarkNetrunFig7NoPrune(b *testing.B) {
	benchNetrunFig7(b, false, false)
}

// BenchmarkNetrunFig7Durable runs the same convergence with a WAL
// under every node (fsync-on-commit). commits/run approximates drains
// that journaled something; fsyncs/run equals it under SyncCommit.
func BenchmarkNetrunFig7Durable(b *testing.B) {
	benchNetrunFig7(b, true, true)
}

func benchNetrunFig7(b *testing.B, aggSel, wal bool) {
	src, ids := fig7Workload()
	wantResults := len(ids) * (len(ids) - 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := parser.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		r, err := netrun.NewConfigured(prog, localMap(ids), netrun.Config{}, engine.Options{AggSel: aggSel})
		if err != nil {
			b.Fatal(err)
		}
		if wal {
			dir := filepath.Join(b.TempDir(), "data")
			if _, err := r.EnableDurability(dir, durable.Options{Sync: durable.SyncCommit}); err != nil {
				b.Fatal(err)
			}
		}
		start := time.Now()
		r.Start()
		// Every node is local, so the credit alone decides: no idle window.
		if !r.WaitQuiescent(0, 60*time.Second) {
			b.Fatal("netrun did not quiesce")
		}
		got := len(r.Tuples("shortestPath"))
		wall := time.Since(start).Seconds()
		if got < wantResults {
			b.Fatalf("converged to %d of %d results", got, wantResults)
		}
		s := r.Stats()
		syncs, commits := r.DurableSyncs(), r.DurableCommits()
		r.Close()
		if i == b.N-1 {
			b.ReportMetric(wall, "s/converge")
			b.ReportMetric(float64(s.SentBytes)/1e6, "MB/run")
			b.ReportMetric(float64(s.SentMessages), "msgs/run")
			if wal {
				b.ReportMetric(float64(syncs), "fsyncs/run")
				b.ReportMetric(float64(commits), "commits/run")
			}
		}
	}
}

func localMap(ids []string) map[string]string {
	local := make(map[string]string, len(ids))
	for _, id := range ids {
		local[id] = ""
	}
	return local
}

// BenchmarkMigration3Fig7 converges the Fig 7 workload as three real
// OS processes, then migrates one node to another shard mid-run and
// re-converges — the PR 5 elasticity cost probe. Reported metrics:
// rebalance pause (quiesce→resume wall time, the window the deployment
// makes no progress), and the post-migration re-convergence wall time.
// Compare s/converge against BenchmarkSharded3Fig7 (no migration).
func BenchmarkMigration3Fig7(b *testing.B) {
	benchMigration3Fig7(b, false)
}

// BenchmarkDurableMigration3Fig7 is the same probe with durability on:
// every worker journals to a WAL (fsync-on-commit) and the moved node
// ships as a snapshot+WAL bundle. The pause delta against the
// non-durable benchmark is the cost of crash-survivability.
func BenchmarkDurableMigration3Fig7(b *testing.B) {
	benchMigration3Fig7(b, true)
}

func benchMigration3Fig7(b *testing.B, durable bool) {
	src, ids := fig7Workload()
	wantResults := len(ids) * (len(ids) - 1)
	for i := 0; i < b.N; i++ {
		opts := Options{AggSel: true}
		if durable {
			opts.DataDir = filepath.Join(b.TempDir(), "data")
		}
		m := &Manifest{
			Source:  src,
			Options: opts,
			Shards:  Partition(ids, 3),
		}
		manifestPath := filepath.Join(b.TempDir(), "manifest.json")
		if err := m.Save(manifestPath); err != nil {
			b.Fatal(err)
		}
		coord, err := NewCoordinator(m)
		if err != nil {
			b.Fatal(err)
		}
		err = coord.Spawn(func(shardID int) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
			cmd.Stderr = os.Stderr
			return cmd
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := coord.WaitReady(20 * time.Second); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		// Migrate the first node to the next shard over, mid-convergence.
		node := ids[0]
		to := (coord.Owner(node) + 1) % 3
		rep, err := coord.Rebalance([]Migration{{Node: node, To: to}}, 60*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		resumed := time.Now()
		if !coord.WaitQuiescent(60 * time.Second) {
			b.Fatal("post-migration deployment did not quiesce")
		}
		got, err := coord.Tuples("shortestPath", 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		reconverge := time.Since(resumed).Seconds()
		if len(got) < wantResults {
			b.Fatalf("converged to %d of %d results", len(got), wantResults)
		}
		if err := coord.Shutdown(15 * time.Second); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(wall, "s/converge")
			b.ReportMetric(rep.Pause.Seconds(), "s/pause")
			b.ReportMetric(reconverge, "s/reconverge")
			b.ReportMetric(float64(rep.StateBytes), "state-B")
		}
	}
}

// BenchmarkSharded3Fig7 converges the same workload as three real OS
// processes (re-execs of the test binary) coordinated over the control
// plane — the BENCH_PR4 sharded configuration.
func BenchmarkSharded3Fig7(b *testing.B) {
	src, ids := fig7Workload()
	wantResults := len(ids) * (len(ids) - 1)
	for i := 0; i < b.N; i++ {
		m := &Manifest{
			Source:  src,
			Options: Options{AggSel: true},
			Shards:  Partition(ids, 3),
		}
		manifestPath := filepath.Join(b.TempDir(), "manifest.json")
		if err := m.Save(manifestPath); err != nil {
			b.Fatal(err)
		}
		coord, err := NewCoordinator(m)
		if err != nil {
			b.Fatal(err)
		}
		err = coord.Spawn(func(shardID int) *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(), WorkerEnv(manifestPath, shardID, coord.ControlAddr())...)
			cmd.Stderr = os.Stderr
			return cmd
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := coord.WaitReady(20 * time.Second); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if !coord.WaitQuiescent(60 * time.Second) {
			b.Fatal("sharded deployment did not quiesce")
		}
		got, err := coord.Tuples("shortestPath", 10*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		wall := time.Since(start).Seconds()
		if len(got) < wantResults {
			b.Fatalf("converged to %d of %d results", len(got), wantResults)
		}
		s := coord.TotalStats()
		if err := coord.Shutdown(15 * time.Second); err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(wall, "s/converge")
			b.ReportMetric(float64(s.SentBytes)/1e6, "MB/run")
			b.ReportMetric(float64(s.SentMessages), "msgs/run")
		}
	}
}
