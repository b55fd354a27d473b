package netrun

import (
	"bytes"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/val"
)

const reachSrc = `
materialize(edge, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,@D) :- #edge(@S,@D).
r2 reach(@S,@D) :- #edge(@S,@Z), reach(@Z,@D).
`

func edge(a, b string) val.Tuple {
	return val.NewTuple("edge", val.NewAddr(a), val.NewAddr(b))
}

func waitIdle(t *testing.T, r *Runner) {
	t.Helper()
	if !r.WaitQuiescent(200*time.Millisecond, 15*time.Second) {
		t.Fatal("runner did not go idle")
	}
}

func sorted(ks []string) []string {
	out := append([]string(nil), ks...)
	sort.Strings(out)
	return out
}

// TestDurableRecovery: a runner's state survives its process — a second
// runner opening the same data directory recovers base facts with exact
// derivation counts from the WAL, and the migration-style rederivation
// sweeps rebuild the cross-node derived state to the same fixpoint.
func TestDurableRecovery(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r1, err := New(prog, []string{"a", "b"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := r1.EnableDurability(dir, durable.Options{}); err != nil || n != 0 {
		t.Fatalf("fresh enable: recovered=%d err=%v", n, err)
	}
	r1.Start()
	// Inject'ed facts are not program facts, so a later Seed cannot mask
	// a recovery failure. edge(a,b) twice: count 2 must survive.
	r1.Inject("a", engine.Insert(edge("a", "b")))
	r1.Inject("a", engine.Insert(edge("a", "b")))
	r1.Inject("b", engine.Insert(edge("b", "a")))
	waitIdle(t, r1)
	wantReach := sorted(r1.Tuples("reach"))
	wantEdge := sorted(r1.Tuples("edge"))
	// Every result converged before the crash: both nodes reach both.
	if want := []string{"reach(a,a)", "reach(a,b)", "reach(b,a)", "reach(b,b)"}; !reflect.DeepEqual(wantReach, want) {
		t.Fatalf("fixpoint before the crash %v, want %v", wantReach, want)
	}
	// Abandon r1 without Close: every drain was fsynced before its
	// datagrams left, so the directory is
	// exactly what a kill -9 would leave behind.
	defer r1.Close()

	r2, err := New(prog, []string{"a", "b"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	n, err := r2.EnableDurability(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d warm nodes, want 2", n)
	}
	if got := sorted(r2.Tuples("edge")); !reflect.DeepEqual(got, wantEdge) {
		t.Fatalf("recovered edges %v, want %v", got, wantEdge)
	}
	// The respawn protocol's per-destination sweeps rebuild the derived
	// state that crossed node boundaries.
	r2.Start()
	r2.RederiveFor([]string{"a"})
	r2.RederiveFor([]string{"b"})
	waitIdle(t, r2)
	if got := sorted(r2.Tuples("reach")); !reflect.DeepEqual(got, wantReach) {
		t.Fatalf("recovered fixpoint %v, want %v", got, wantReach)
	}

	// Count fidelity: edge(a,b) was inserted twice; one delete leaves it.
	r2.Inject("a", engine.Deletion(edge("a", "b")))
	waitIdle(t, r2)
	if got := r2.NodeTuples("a", "edge"); len(got) != 1 {
		t.Fatalf("count-2 edge vanished after one delete: %v", got)
	}
	r2.Inject("a", engine.Deletion(edge("a", "b")))
	waitIdle(t, r2)
	if got := r2.NodeTuples("a", "edge"); len(got) != 0 {
		t.Fatalf("edge survived both deletes: %v", got)
	}
}

// TestDurableSnapshotCadence: a tiny snapshot threshold forces the WAL
// to roll into snapshots mid-run, and recovery from a snapshot (counts
// ride in the exported state) is as exact as WAL replay.
func TestDurableSnapshotCadence(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	r1, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.EnableDurability(dir, durable.Options{SnapshotBytes: 1}); err != nil {
		t.Fatal(err)
	}
	r1.Start()
	r1.Inject("a", engine.Insert(edge("a", "a")))
	r1.Inject("a", engine.Insert(edge("a", "a")))
	waitIdle(t, r1)
	defer r1.Close()

	r2, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if n, err := r2.EnableDurability(dir, durable.Options{}); err != nil || n != 1 {
		t.Fatalf("recovered=%d err=%v", n, err)
	}
	if got := r2.NodeTuples("a", "edge"); len(got) != 1 {
		t.Fatalf("edge not recovered from snapshot: %v", got)
	}
	r2.Inject("a", engine.Deletion(edge("a", "a")))
	if got := r2.NodeTuples("a", "edge"); len(got) != 1 {
		t.Fatal("derivation count lost across snapshot recovery")
	}
	r2.Inject("a", engine.Deletion(edge("a", "a")))
	if got := r2.NodeTuples("a", "edge"); len(got) != 0 {
		t.Fatal("edge survived both deletes")
	}
}

// TestExportStateMigration: a durable node migrates by shipping its
// export, one delta batch, exactly as a non-durable node does; the
// adopting runner rebuilds the same state — counts included — and the
// import lands in the adopter's own store.
func TestExportStateMigration(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	if _, err := r1.EnableDurability(t.TempDir(), durable.Options{}); err != nil {
		t.Fatal(err)
	}
	r1.Start()
	r1.Inject("a", engine.Insert(edge("a", "a")))
	r1.Inject("a", engine.Insert(edge("a", "a")))
	waitIdle(t, r1)
	state, err := r1.ExportState("a")
	if err != nil {
		t.Fatal(err)
	}
	if ds, err := engine.DecodeDeltas(state); err != nil || len(ds) != 2 {
		t.Fatalf("durable export: %v (%v), want the count-2 edge as two insertions", ds, err)
	}

	dir2 := t.TempDir()
	r2, err := NewConfigured(prog, map[string]string{}, Config{}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.EnableDurability(dir2, durable.Options{}); err != nil {
		t.Fatal(err)
	}
	r2.Start()
	if err := r2.AddNode("a", ""); err != nil {
		t.Fatal(err)
	}
	if err := r2.ImportNode("a", state); err != nil {
		t.Fatal(err)
	}
	if got := r2.NodeTuples("a", "reach"); len(got) != 1 {
		t.Fatalf("imported node did not rederive: %v", got)
	}
	r2.Inject("a", engine.Deletion(edge("a", "a")))
	if got := r2.NodeTuples("a", "edge"); len(got) != 1 {
		t.Fatal("export lost the derivation count")
	}

	// The import itself was journaled: a restart of the adopter recovers
	// the migrated state from the adopter's own store.
	r3, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	if n, err := r3.EnableDurability(dir2, durable.Options{}); err != nil || n != 1 {
		t.Fatalf("adopter restart: recovered=%d err=%v", n, err)
	}
	if got := r3.NodeTuples("a", "edge"); len(got) != 1 {
		t.Fatalf("adopter restart lost migrated state: %v", got)
	}

	// A non-durable runner holding the same state exports the same bytes.
	r4, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r4.Close()
	r4.Start()
	r4.Inject("a", engine.Insert(edge("a", "a")))
	r4.Inject("a", engine.Insert(edge("a", "a")))
	bare, err := r4.ExportState("a")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bare, state) {
		t.Fatalf("non-durable export %x, durable export %x", bare, state)
	}
}

// TestImportReplaysEachRecordAtItsClock: restore replays every WAL
// record a crashed node left under min(its clock, now). A record
// stamped after the recovering node's clock replays at now — not under
// the previous record's clock, which would take the gap off its soft
// tuples' lifetimes.
func TestImportReplaysEachRecordAtItsClock(t *testing.T) {
	const ttl = 60
	prog, err := parser.Parse(`materialize(beat, 60, infinity, keys(1,2)).
materialize(seen, 60, infinity, keys(1,2)).
r1 seen(@N, X) :- beat(@N, X).
`)
	if err != nil {
		t.Fatal(err)
	}
	beat := func(at float64, x int64) []byte {
		return encodeWALRecord(at, []engine.Delta{engine.Insert(val.NewTuple("beat", val.NewAddr("a"), val.NewInt(x)))})
	}
	dir := t.TempDir()
	store, _, err := durable.Open(filepath.Join(dir, "a"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	now := float64(time.Now().UnixNano()) / 1e9
	store.Append(beat(now-5, 1))
	store.Append(beat(now+5, 2))
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if n, err := r.EnableDurability(dir, durable.Options{}); err != nil || n != 1 {
		t.Fatalf("recovered=%d err=%v", n, err)
	}
	state, err := r.ExportState("a")
	if err != nil {
		t.Fatal(err)
	}
	ds, err := engine.DecodeDeltas(state)
	if err != nil {
		t.Fatal(err)
	}
	remaining := map[int64]float32{}
	for _, d := range ds {
		if d.Tuple.Pred == "beat" {
			remaining[d.Tuple.Fields[1].Int()] = d.Life
		}
	}
	if got := remaining[1]; got < ttl-6 || got > ttl-4 {
		t.Errorf("beat stamped now-5: remaining %.2f s, want about %d", got, ttl-5)
	}
	if got := remaining[2]; got <= ttl-1 {
		t.Errorf("beat stamped now+5: remaining %.2f s, want above %d (replayed at now)", got, ttl-1)
	}
}

// TestRestoreRefusesRetraction: an export holds only insertions, so a
// snapshot or a migrated state that holds a retraction is corrupt, and
// neither adoption nor crash recovery applies any of it.
func TestRestoreRefusesRetraction(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	bad := engine.AppendDeltas(nil, []engine.Delta{engine.Insert(edge("a", "a")), engine.Deletion(edge("a", "b"))})

	r, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.ImportNode("a", bad); err == nil || !strings.Contains(err.Error(), "retraction") {
		t.Errorf("import of a batch holding a retraction: err = %v, want a refusal", err)
	}
	if got := r.NodeTuples("a", "edge"); len(got) != 0 {
		t.Errorf("a refused import applied %v", got)
	}

	dir := t.TempDir()
	store, _, err := durable.Open(filepath.Join(dir, "a"), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Snapshot(bad); err != nil {
		t.Fatal(err)
	}
	store.Close()
	r2, err := New(prog, []string{"a"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.EnableDurability(dir, durable.Options{}); err == nil || !strings.Contains(err.Error(), "retraction") {
		t.Errorf("recovery from a snapshot holding a retraction: err = %v, want a refusal", err)
	}
}

// TestBindHost: the manifest Host knob binds ephemeral node sockets on
// an explicit interface, and a bad host fails construction.
func TestBindHost(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewConfigured(prog, map[string]string{"a": ""}, Config{BindHost: "127.0.0.1"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	addr := r.Addr("a")
	if addr == nil || addr.IP.String() != "127.0.0.1" || addr.Port == 0 {
		t.Fatalf("bind host not honored: %v", addr)
	}
	r.Start()
	r.Inject("a", engine.Insert(edge("a", "a")))
	waitIdle(t, r)
	if got := r.NodeTuples("a", "reach"); len(got) != 1 {
		t.Fatalf("node on explicit host not serving: %v", got)
	}

	if _, err := NewConfigured(prog, map[string]string{"a": ""}, Config{BindHost: "no.such.host.invalid"}, engine.Options{}); err == nil {
		t.Fatal("invalid bind host accepted")
	}
}

// TestSeedSweepFsyncPerNode: WAL-before-wire is paid per node. A Seed
// sweep over the five Figure 2 nodes (each owns link facts) commits one
// record per node, so it costs exactly five fsyncs.
func TestSeedSweepFsyncPerNode(t *testing.T) {
	r, err := New(mustProg(t), []string{"a", "b", "c", "d", "e"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.EnableDurability(t.TempDir(), durable.Options{}); err != nil {
		t.Fatal(err)
	}
	// Seed without Start: one deterministic drain per node, no receive
	// traffic to blur the count.
	base := r.DurableSyncs()
	r.Seed()
	if got := r.DurableSyncs() - base; got != 5 {
		t.Errorf("five-node seed sweep cost %d fsyncs, want 5", got)
	}
}
