// Command ndnode runs one shard of a sharded NDlog deployment: it
// hosts the shard's nodes as real UDP sockets (internal/netrun) and
// speaks the coordinator control protocol (internal/shard) over one TCP
// connection to the coordinator.
//
// Usage:
//
//	ndnode -manifest deploy.json -shard 0 -coord 127.0.0.1:9000
//	ndnode -manifest deploy.json -shard 1            # static book, no coordinator
//
// With -coord, the process dials the coordinator (which must already
// be listening) and joins its handshake: it reports its ephemeral node
// addresses, receives the merged cluster book, seeds its home facts on
// the start barrier, answers gather queries, and exits on the
// coordinator's stop — or with an error as soon as the connection
// closes, or after -coord-timeout of silence from a coordinator that
// hangs. Without -coord, every node
// address in the manifest must be static ("host:port"); the shard
// seeds immediately and serves until killed — the multi-machine
// deployment mode, one ndnode per host.
//
// ndlog -shards N spawns this same worker loop via re-exec; ndnode is
// the standalone entry point for manifests you write yourself.
package main

import (
	"flag"
	"fmt"
	"os"

	"ndlog/internal/shard"
)

func main() {
	// Re-exec entry: a coordinator may spawn ndnode itself with the
	// worker environment set.
	if handled, err := shard.MaybeRunWorker(); handled {
		if err != nil {
			fail(err)
		}
		return
	}

	manifest := flag.String("manifest", "", "deployment manifest (JSON)")
	shardID := flag.Int("shard", -1, "shard id to run (from the manifest)")
	coord := flag.String("coord", "", "coordinator control address (empty: static book, run until killed)")
	coordTimeout := flag.Duration("coord-timeout", 0, "max coordinator silence before exiting (0: 60s default)")
	data := flag.String("data", "", "override the manifest's data directory (WAL + snapshots; empty: use manifest)")
	parallel := flag.Int("parallel", -1, "override the manifest's parallelism: per-node worker pool for seeds and rederivation sweeps (0: GOMAXPROCS, 1: sequential; negative: use manifest)")
	verbose := flag.Bool("v", false, "log shard lifecycle to stderr")
	flag.Parse()

	if *manifest == "" || *shardID < 0 {
		fmt.Fprintln(os.Stderr, "usage: ndnode -manifest deploy.json -shard N [-coord host:port]")
		flag.Usage()
		os.Exit(2)
	}
	m, err := shard.Load(*manifest)
	if err != nil {
		fail(err)
	}
	if *data != "" {
		m.Options.DataDir = *data
	}
	if *parallel >= 0 {
		m.Options.Parallelism = *parallel
	}
	cfg := shard.WorkerConfig{Manifest: m, ShardID: *shardID, Coord: *coord, CoordTimeout: *coordTimeout}
	if *verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ndnode: "+format+"\n", args...)
		}
	}
	if err := shard.RunWorker(cfg); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ndnode:", err)
	os.Exit(1)
}
