// Package shard deploys one NDlog program as N cooperating OS
// processes. It is the production-scale layer above internal/netrun:
// a Manifest partitions the program's node population into shards,
// each shard process (cmd/ndnode, or ndlog re-exec'd as a worker)
// hosts its nodes' UDP sockets through a netrun.Runner, and a
// Coordinator — one TCP control connection per worker —
// assembles the global address book, detects cross-process quiescence,
// gathers tuples and per-shard metrics, re-partitions the live fleet
// (Rebalance: epoch-versioned books, node state migration, stale-epoch
// fencing), and tears the deployment down.
//
// Control-plane frames are JSON objects behind a length prefix, with
// gathered tuples in the engine's delta encoding; see control.go for
// the frame format, DESIGN.md §4 for the handshake and quiescence
// protocol, and §5 for the epoch/fencing/migration protocol
// (Coordinator.Rebalance).
//
// Ownership: the Coordinator and Worker each own their control socket
// and goroutines; tuples crossing the control plane are decoded copies
// (never aliasing receive buffers), so gathered results stay valid
// after the deployment is closed. The Manifest is read-only after
// Validate.
package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"ndlog/internal/ast"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
)

// Options is the engine configuration carried by a manifest, as text so
// manifests stay editable by operators. Every shard must run the same
// options — the evaluation semantics are program-wide.
type Options struct {
	// Mode is the evaluation mode: "psn" (default) or "sn".
	Mode string `json:"mode,omitempty"`
	// AggSel enables aggregate selections (Section 5.1.1).
	AggSel bool `json:"aggsel,omitempty"`
	// DataDir, when set, makes every worker persist its nodes' state
	// (WAL + snapshots, internal/durable): shard i keeps one store per
	// node under <DataDir>/shard-<i>, and a respawned worker recovers
	// warm from there instead of starting cold. Each drain's WAL record
	// is fsynced before its datagrams leave. Empty disables
	// durability. Relative paths resolve against each worker's
	// cwd, so spawned deployments should use absolute paths.
	DataDir string `json:"data_dir,omitempty"`
}

// UnmarshalJSON rejects the option keys this format used to carry and
// no longer does, instead of letting encoding/json drop them silently:
// a deployment that asks for a removed behaviour should hear about it.
func (o *Options) UnmarshalJSON(b []byte) error {
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(b, &keys); err != nil {
		return err
	}
	for _, r := range removedOptions {
		if _, ok := keys[r.key]; ok {
			return fmt.Errorf("option %q was removed (%s): delete the key", r.key, r.why)
		}
	}
	type plain Options
	return json.Unmarshal(b, (*plain)(o))
}

// removedOptions names each retired option key and why it went.
var removedOptions = []struct{ key, why string }{
	{"arena", "the engine no longer pools tuples, so there is no arena to select"},
	{"psn_batch", "batched PSN drains measured no faster than tuple-at-a-time on any workload, so the engine has one pipeline"},
	{"shared_sockets", "a shared socket set measured no faster than a socket per node on any workload and dropped more datagrams from 52 nodes up, so every node has its own socket"},
	{"group_commit", "a shard-wide log measured no faster than a WAL per node on any workload, so every node has its own WAL"},
	{"aggsel_period", "netrun never flushed periodic aggregate selections, so a period left groups unadvertised; only the simulator's Cluster takes one"},
	{"loss_first", "it was a test's fault injection, not a deployment setting"},
	{"aggsel_preds", "the planner now proves which aggregate selections are safe to prune, so there is no list to give"},
	{"fsync", "nothing set it, and a lazier policy than fsync per commit breaks the WAL-before-wire promise a respawned worker's recovery relies on"},
	{"snapshot_bytes", "nothing set it, and its negative setting let the WAL grow without bound; a node's WAL rolls into a snapshot at the durable package's default size"},
	{"parallelism", "a worker's seed and rederivation walks measured no faster on a pool than one node after another, so they run sequentially; receive loops are already one goroutine per node"},
}

// Engine converts the manifest options to engine options.
func (o Options) Engine() (engine.Options, error) {
	mode, err := engine.ParseMode(o.Mode)
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{Mode: mode, AggSel: o.AggSel}, nil
}

// ShardSpec assigns a slice of the node population to one shard.
type ShardSpec struct {
	// ID is the shard's identity, unique within the manifest.
	ID int `json:"id"`
	// Nodes maps each hosted NDlog node ID to its UDP bind address.
	// "" binds an ephemeral port (on Host, or loopback), resolved at
	// startup through the coordinator handshake; a "host:port" string
	// pins the socket for static multi-machine deployments, where peers
	// can be reached without a handshake at all.
	Nodes map[string]string `json:"nodes"`
	// Host is the bind host for the shard's ephemeral node sockets (the
	// "" entries in Nodes): loopback when empty, a LAN interface address
	// when the shard must be reachable from other machines without
	// pinning every node's port.
	Host string `json:"host,omitempty"`
}

// Manifest describes one sharded deployment: the program, the engine
// options, and the shard → node → address book.
type Manifest struct {
	// Program is a path to the NDlog source file. Used when Source is
	// empty; relative paths resolve against the worker's cwd, so
	// spawned deployments prefer Source.
	Program string `json:"program,omitempty"`
	// Source is the NDlog program source, inline. Inline source makes a
	// manifest self-contained: every shard of a spawned deployment
	// parses the identical text.
	Source string `json:"source,omitempty"`
	// Options is the engine configuration, shared by all shards.
	Options Options `json:"options"`
	// Shards is the partition. Every node ID appears in exactly one
	// shard.
	Shards []ShardSpec `json:"shards"`
}

// Load reads and validates a manifest from a JSON file.
func Load(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("shard: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Save writes the manifest as indented JSON.
func (m *Manifest) Save(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Validate checks manifest invariants: at least one shard, unique shard
// IDs, no node hosted twice, a program present, known option values.
func (m *Manifest) Validate() error {
	if len(m.Shards) == 0 {
		return fmt.Errorf("no shards")
	}
	if m.Source == "" && m.Program == "" {
		return fmt.Errorf("neither source nor program set")
	}
	if _, err := m.Options.Engine(); err != nil {
		return err
	}
	ids := map[int]bool{}
	owner := map[string]int{}
	for _, s := range m.Shards {
		if ids[s.ID] {
			return fmt.Errorf("duplicate shard id %d", s.ID)
		}
		ids[s.ID] = true
		if len(s.Nodes) == 0 {
			return fmt.Errorf("shard %d hosts no nodes", s.ID)
		}
		for n := range s.Nodes {
			if prev, ok := owner[n]; ok {
				return fmt.Errorf("node %q in shards %d and %d", n, prev, s.ID)
			}
			owner[n] = s.ID
		}
	}
	return nil
}

// Shard returns the spec with the given ID, or nil.
func (m *Manifest) Shard(id int) *ShardSpec {
	for i := range m.Shards {
		if m.Shards[i].ID == id {
			return &m.Shards[i]
		}
	}
	return nil
}

// NodeCount returns the total number of nodes across all shards.
func (m *Manifest) NodeCount() int {
	n := 0
	for i := range m.Shards {
		n += len(m.Shards[i].Nodes)
	}
	return n
}

// ParseProgram parses the manifest's program: Source if set, otherwise
// the Program file.
func (m *Manifest) ParseProgram() (*ast.Program, error) {
	src := m.Source
	if src == "" {
		b, err := os.ReadFile(m.Program)
		if err != nil {
			return nil, err
		}
		src = string(b)
	}
	return parser.Parse(src)
}

// Partition splits a node population into n shards, round-robin over
// the sorted IDs — deterministic, so every process that computes the
// partition from the same population agrees, and balanced to within
// one node. All bind addresses are left ephemeral ("").
func Partition(ids []string, n int) []ShardSpec {
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	specs := make([]ShardSpec, n)
	for i := range specs {
		specs[i] = ShardSpec{ID: i, Nodes: map[string]string{}}
	}
	for i, id := range sorted {
		specs[i%n].Nodes[id] = ""
	}
	return specs
}
