package netrun

// Durability: each local node owns a durable.Store (WAL + snapshots)
// under <dir>/<nodeID>. The engine's journal tap collects every
// processed recoverable delta during a drain; commitDurable frames the
// batch as one WAL record — stamped with the node's virtual clock —
// and commits it BEFORE the drain's outbound datagrams are
// dispatched and before the inbound frame that triggered it is acked,
// so a kill -9 can never have advertised, or acknowledged, state it
// will not remember. When the WAL outgrows Options.SnapshotBytes the node's
// export (engine.Node.Export, one delta batch) replaces it as a fresh
// snapshot generation.
//
// Recovery (EnableDurability, before Start) and adoption (ImportNode)
// share one restore: push the snapshot's batch at the node's clock (each
// soft tuple with the lifetime it had left), then replay the WAL tail
// record by record under each record's own clock. The drains rebuild the
// node's derived state; nothing sweeps after them. A migration ships the
// same batch as a snapshot, so adoption is a restore with no records.
// Outbound deltas produced during recovery are discarded — the
// shard-level respawn protocol rebuilds cross-node state with explicit
// rederivation sweeps once the fleet knows the node is back. The journal
// tap installs only after replay, so recovery does not re-journal
// itself; a fresh snapshot then folds the replayed tail into a compact
// generation.

import (
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/val"
)

// EnableDurability attaches a durable store to every local node,
// recovering whatever a previous incarnation persisted under dir. It
// must be called after construction and before Start (the node set is
// quiet). Returns the number of nodes that recovered non-empty state.
// Nodes adopted later (AddNode) get stores automatically.
func (r *Runner) EnableDurability(dir string, opts durable.Options) (int, error) {
	if dir == "" {
		return 0, fmt.Errorf("netrun: empty durability dir")
	}
	r.nodesMu.Lock()
	defer r.nodesMu.Unlock()
	if r.started {
		return 0, fmt.Errorf("netrun: EnableDurability after Start")
	}
	if r.durDir != "" {
		return 0, fmt.Errorf("netrun: durability already enabled")
	}
	r.durDir, r.durOpts = dir, opts
	recovered := 0
	for _, id := range sortedNodeIDs(r.nodes) {
		nn := r.nodes[id]
		warm, err := r.attachStore(nn, false)
		if err != nil {
			return recovered, fmt.Errorf("netrun: durability for %s: %w", id, err)
		}
		if warm {
			recovered++
		}
	}
	return recovered, nil
}

func sortedNodeIDs(nodes map[string]*netNode) []string {
	out := make([]string, 0, len(nodes))
	for id := range nodes {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// attachStore opens the node's store, replays recovered state into the
// engine (unless discard is set — adopted nodes get their state from a
// migration export instead), takes a fresh post-recovery snapshot, and
// installs the journal tap. Reports whether recovery found state.
func (r *Runner) attachStore(nn *netNode, discard bool) (bool, error) {
	store, rec, err := durable.Open(filepath.Join(r.durDir, nn.id), r.durOpts)
	if err != nil {
		return false, err
	}
	warm := !rec.Empty()
	nn.mu.Lock()
	defer nn.mu.Unlock()
	if warm && !discard {
		if _, err := restore(nn.node, rec.Snapshot, rec.Records, float64(time.Now().UnixNano())/1e9); err != nil {
			store.Close()
			return false, err
		}
		nn.seeded = true
	}
	// Fold the recovered (or deliberately empty) state into a compact
	// snapshot generation before journaling resumes.
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	if err := store.Snapshot(snapshot(nn.node)); err != nil {
		store.Close()
		return false, err
	}
	nn.dur = store
	nn.node.SetJournal(func(d engine.Delta) {
		nn.pending = append(nn.pending, d)
	})
	return warm && !discard, nil
}

// snapshot is the node's export as one delta batch: the payload of a
// snapshot generation and of a migration alike.
func snapshot(n *engine.Node) []byte {
	return engine.AppendDeltas(nil, n.Export(nil))
}

// restore rebuilds a node from a snapshot (nil for none) and WAL
// records: push the snapshot's insertions at now, then replay each
// record under min(its clock, now). Replay alone rebuilds the node's
// derived state: PSN's drain reaches SN's fixpoint in any arrival order
// (the paper's Theorem 1). A snapshot holding a retraction is refused:
// an export never makes one. It returns every outbound delta the
// rebuild produced: crash recovery discards them (the fleet is
// re-synced by the respawn sweeps), adoption dispatches them. Caller
// holds the node's lock.
func restore(n *engine.Node, snap []byte, records [][]byte, now float64) ([]engine.OutDelta, error) {
	var outs []engine.OutDelta
	n.SetNow(now)
	if len(snap) > 0 {
		deltas, err := engine.DecodeDeltasInto(snap, n.Interner(), nil)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		for _, d := range deltas {
			if d.Sign < 0 {
				return nil, fmt.Errorf("snapshot: retraction %v", d)
			}
		}
		for _, d := range deltas {
			n.Push(d)
		}
		outs = n.DrainInto(outs)
	}
	for i, b := range records {
		recNow, deltas, err := decodeWALRecord(b, n.Interner())
		if err != nil {
			return nil, fmt.Errorf("wal record %d: %w", i, err)
		}
		// Replay under the record's virtual clock so soft-state deadlines
		// land where the source node had them, clamped so a skewed clock
		// cannot push this node's clock forward.
		n.SetNow(math.Min(recNow, now))
		for _, d := range deltas {
			n.Push(d)
		}
		outs = n.DrainInto(outs)
	}
	n.SetNow(now)
	return outs, nil
}

// commitDurable folds the deltas journaled during one drain into a
// single WAL record, appends it and makes it durable per the sync
// policy; a WAL past its size bound is first replaced by a snapshot
// (which subsumes the still-uncommitted record). Caller holds nn.mu.
// No-op without durability. Persistence errors are deliberately
// non-fatal to the data path: the node keeps serving, and the next
// commit retries.
func (r *Runner) commitDurable(nn *netNode) {
	if nn.dur == nil {
		return
	}
	if len(nn.pending) > 0 {
		rec := encodeWALRecord(nn.node.Now(), nn.pending)
		// Drop the tuple references, and the array too once a large
		// batch's drain grew it past what a receive loop decodes into.
		clear(nn.pending)
		if cap(nn.pending) > decodeScratch {
			nn.pending = nil
		} else {
			nn.pending = nn.pending[:0]
		}
		if err := nn.dur.Append(rec); err != nil {
			return
		}
	}
	if nn.dur.ShouldSnapshot() {
		nn.dur.Snapshot(snapshot(nn.node))
	}
	nn.dur.Commit()
}

// DurableCommits returns the total WAL commit batches this runner's
// per-node stores wrote. Zero without durability.
func (r *Runner) DurableCommits() uint64 {
	var total uint64
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		if nn.dur != nil {
			total += nn.dur.Commits()
		}
		nn.mu.Unlock()
	}
	return total
}

// DurableSyncs returns the total fsyncs this runner's per-node stores
// issued.
func (r *Runner) DurableSyncs() uint64 {
	var total uint64
	for _, nn := range r.localNodes() {
		nn.mu.Lock()
		if nn.dur != nil {
			total += nn.dur.Syncs()
		}
		nn.mu.Unlock()
	}
	return total
}

// ExportState returns a local node's migratable state for ImportNode:
// its export (base facts, once per derivation count, and soft state with
// the lifetime it has left) as one delta batch, durable or not.
func (r *Runner) ExportState(id string) ([]byte, error) {
	nn, ok := r.node(id)
	if !ok {
		return nil, fmt.Errorf("netrun: node %q not hosted", id)
	}
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.node.SetNow(float64(time.Now().UnixNano()) / 1e9)
	return snapshot(nn.node), nil
}

// walRecord := now(float64 bits, 8B LE) deltas(engine delta message)
//
// The virtual clock rides in every record so replay can re-install
// soft-state TTLs relative to when the deltas were processed, not when
// the recovery runs.
func encodeWALRecord(now float64, deltas []engine.Delta) []byte {
	rec := make([]byte, 8)
	binary.LittleEndian.PutUint64(rec, math.Float64bits(now))
	return engine.AppendDeltas(rec, deltas)
}

func decodeWALRecord(b []byte, in *val.Interner) (float64, []engine.Delta, error) {
	if len(b) < 9 {
		return 0, nil, fmt.Errorf("netrun: short WAL record")
	}
	now := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(now) {
		return 0, nil, fmt.Errorf("netrun: corrupt WAL record clock")
	}
	deltas, err := engine.DecodeDeltasInto(b[8:], in, nil)
	if err != nil {
		return 0, nil, fmt.Errorf("netrun: corrupt WAL record: %w", err)
	}
	return now, deltas, nil
}
