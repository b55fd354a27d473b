package shard

import (
	"bufio"
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"ndlog/internal/durable"
	"ndlog/internal/engine"
	"ndlog/internal/netrun"
	"ndlog/internal/val"
)

func TestPartitionDeterministicAndBalanced(t *testing.T) {
	ids := []string{"e", "c", "a", "d", "b"}
	a := Partition(ids, 3)
	b := Partition([]string{"a", "b", "c", "d", "e"}, 3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("partition not deterministic: %v vs %v", a, b)
	}
	counts := map[string]int{}
	for _, s := range a {
		if len(s.Nodes) < 1 || len(s.Nodes) > 2 {
			t.Errorf("shard %d unbalanced: %d nodes", s.ID, len(s.Nodes))
		}
		for n := range s.Nodes {
			counts[n]++
		}
	}
	for _, id := range ids {
		if counts[id] != 1 {
			t.Errorf("node %s assigned %d times", id, counts[id])
		}
	}
	// More shards than nodes collapses to one node per shard.
	if got := Partition([]string{"x", "y"}, 5); len(got) != 2 {
		t.Errorf("oversharded partition: %d shards", len(got))
	}
	// Zero shards clamps to one.
	if got := Partition([]string{"x", "y"}, 0); len(got) != 1 {
		t.Errorf("zero-shard partition: %d shards", len(got))
	}
}

func TestManifestRoundTripAndValidate(t *testing.T) {
	m := &Manifest{
		Source: "sp path(...) :- link(...).",
		Options: Options{Mode: "sn", AggSel: true,
			DataDir: "/var/lib/ndlog", Fsync: "interval", SnapshotBytes: 1 << 20,
			Parallelism: 4},
		Shards: []ShardSpec{
			{ID: 0, Nodes: map[string]string{"a": "", "b": "127.0.0.1:7001"}, Host: "127.0.0.1"},
			{ID: 1, Nodes: map[string]string{"c": ""}},
		},
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", m, got)
	}
	if got.NodeCount() != 3 {
		t.Errorf("NodeCount = %d", got.NodeCount())
	}
	if got.Shard(1) == nil || got.Shard(7) != nil {
		t.Error("Shard lookup broken")
	}
	opts, err := got.Options.Engine()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode != engine.SN || !opts.AggSel {
		t.Errorf("engine options: %+v", opts)
	}
	if opts.Parallelism != 4 || opts.Workers() != 4 {
		t.Errorf("parallelism not threaded through: %+v", opts)
	}

	// A manifest written for a removed option fails loudly, naming the
	// key, instead of loading with the option silently dropped.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"arena", "psn_batch", "shared_sockets", "group_commit", "aggsel_period", "loss_first", "aggsel_preds"} {
		stale := filepath.Join(t.TempDir(), "stale.json")
		with := bytes.Replace(b, []byte(`"mode":`), []byte(`"`+key+`": 1, "mode":`), 1)
		if err := os.WriteFile(stale, with, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(stale)
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("manifest carrying the removed %s key: err = %v, want one naming %q", key, err, key)
		}
		if key == "aggsel_preds" && (err == nil || !strings.Contains(err.Error(), "planner now proves")) {
			t.Errorf("manifest carrying aggsel_preds: err = %v, want the reason it went", err)
		}
	}
	// So does one asking for the removed BSN mode, pointing at SN.
	stale := filepath.Join(t.TempDir(), "bsn.json")
	if err := os.WriteFile(stale, bytes.Replace(b, []byte(`"mode": "sn"`), []byte(`"mode": "bsn"`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(stale); err == nil || !strings.Contains(err.Error(), `"bsn" was removed`) || !strings.Contains(err.Error(), `"sn"`) {
		t.Errorf("manifest with mode bsn: err = %v, want one naming its removal and \"sn\"", err)
	}

	bad := []*Manifest{
		{Source: "x"}, // no shards
		{Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}}},                                                          // no program
		{Source: "x", Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}, {ID: 0, Nodes: map[string]string{"b": ""}}}}, // dup id
		{Source: "x", Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}, {ID: 1, Nodes: map[string]string{"a": ""}}}}, // dup node
		{Source: "x", Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{}}}},                                                    // empty shard
		{Source: "x", Options: Options{Parallelism: -2},
			Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}}}, // negative parallelism
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad manifest %d validated", i)
		}
	}
	if _, err := (Options{Mode: "warp"}).Engine(); err == nil {
		t.Error("bad mode accepted")
	}

	// Durability stanza: policy names map to durable sync modes, and an
	// unknown policy is rejected at Validate time, not at worker startup.
	dir, dopts, err := got.Options.Durable()
	if err != nil || dir != "/var/lib/ndlog" || dopts.Sync != durable.SyncInterval || dopts.SnapshotBytes != 1<<20 {
		t.Errorf("durable options: dir=%q opts=%+v err=%v", dir, dopts, err)
	}
	if _, d, err := (Options{}).Durable(); err != nil || d.Sync != durable.SyncCommit {
		t.Errorf("default durable options: %+v err=%v", d, err)
	}
	badFsync := &Manifest{Source: "x", Options: Options{Fsync: "eventually"},
		Shards: []ShardSpec{{ID: 0, Nodes: map[string]string{"a": ""}}}}
	if err := badFsync.Validate(); err == nil {
		t.Error("bad fsync policy validated")
	}
}

// sampleFrames is at least one well-formed frame of every kind: the
// round-trip test's inputs and the decoder fuzz target's seeds.
func sampleFrames() []frame {
	tup := val.NewTuple("shortestPath",
		val.NewAddr("a"), val.NewAddr("b"),
		val.NewList(val.NewAddr("a"), val.NewAddr("b")), val.NewFloat(1.5))
	return []frame{
		{kind: kindHello, shard: 2, book: map[string]string{"a": "127.0.0.1:1", "b": "127.0.0.1:2"}},
		{kind: kindBook, epoch: 3, book: map[string]string{"a": "127.0.0.1:1"}},
		{kind: kindReady, shard: 1, epoch: 3},
		{kind: kindStart},
		{kind: kindIdle, shard: 3, epoch: 2, mark: 4, activity: 42,
			stats: netrun.Stats{SentBytes: 1, SentMessages: 2, RecvBytes: 3, RecvMessages: 4, Dropped: 5, Fenced: 6,
				Retransmits: 7, Duplicates: 8, Reordered: 9, AckFrames: 10, Drains: 11, Outstanding: 12}},
		{kind: kindQuery, req: 7, pred: "shortestPath"},
		{kind: kindTuples, shard: 1, req: 7, tuples: []val.Tuple{tup}},
		{kind: kindTuples, shard: 1, req: 7}, // nothing gathered
		{kind: kindPong},
		{kind: kindPong, mark: 12},
		{kind: kindStop},
		{kind: kindBye, shard: 2, stats: netrun.Stats{SentMessages: 10, RecvMessages: 10}},
		{kind: kindRelease, req: 11, epoch: 2, node: "c"},
		{kind: kindState, shard: 1, req: 11, blob: []byte{0x4E, 1, 2, 3}},
		{kind: kindState, shard: 1, req: 11, blob: []byte{}}, // empty state
		{kind: kindAdopt, req: 12, epoch: 3, node: "c", blob: []byte{9, 9}},
		{kind: kindAdopted, shard: 2, req: 12, node: "c", addr: "127.0.0.1:9"},
		{kind: kindResume, epoch: 3, nodes: []string{"c", "d"}},
		{kind: kindResumed, shard: 2, epoch: 3},
		{kind: kindIdle, shard: 1, epoch: 4, activity: 8,
			stats: netrun.Stats{SentMessages: 7, RecvMessages: 7}},
		{kind: kindRederive, req: 13, epoch: 3, nodes: []string{"b", "c"}},
		{kind: kindRederive, req: 14, epoch: 3}, // no nodes: a no-op sweep
		{kind: kindRederived, shard: 1, req: 13},
	}
}

func TestControlFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		b := encodeFrame(f)
		got, err := decodeFrame(b)
		if err != nil {
			t.Fatalf("%#x: %v", f.kind, err)
		}
		if got.kind != f.kind || got.shard != f.shard || got.epoch != f.epoch ||
			got.mark != f.mark ||
			got.activity != f.activity || got.stats != f.stats ||
			got.req != f.req || got.pred != f.pred ||
			got.node != f.node || got.addr != f.addr {
			t.Errorf("%#x: round trip mismatch: %+v vs %+v", f.kind, got, f)
		}
		if !reflect.DeepEqual(got.book, f.book) {
			t.Errorf("%#x: book mismatch", f.kind)
		}
		if !reflect.DeepEqual(got.nodes, f.nodes) {
			t.Errorf("%#x: nodes mismatch: %v vs %v", f.kind, got.nodes, f.nodes)
		}
		if len(got.blob) != len(f.blob) || (len(f.blob) > 0 && !reflect.DeepEqual(got.blob, f.blob)) {
			t.Errorf("%#x: blob mismatch: %v vs %v", f.kind, got.blob, f.blob)
		}
		if len(got.tuples) != len(f.tuples) {
			t.Fatalf("%#x: tuple count %d vs %d", f.kind, len(got.tuples), len(f.tuples))
		}
		for i := range f.tuples {
			if !got.tuples[i].Equal(f.tuples[i]) {
				t.Errorf("%#x: tuple %d mismatch: %v vs %v", f.kind, i, got.tuples[i], f.tuples[i])
			}
		}
	}
}

// TestStatsRoundTripEveryField: every netrun.Stats counter crosses the
// control plane under its own name. Each field gets a distinct value, so
// a counter the encoding forgets, or two it swaps, fails here.
func TestStatsRoundTripEveryField(t *testing.T) {
	var want netrun.Stats
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(1000 + i))
	}
	for _, kind := range []frameKind{kindIdle, kindBye} {
		got, err := decodeFrame(encodeFrame(frame{kind: kind, shard: 1, stats: want}))
		if err != nil {
			t.Fatalf("%#x: %v", kind, err)
		}
		if got.stats != want {
			t.Errorf("%#x: stats %+v, want %+v", kind, got.stats, want)
		}
	}
}

func TestControlFrameCorrupt(t *testing.T) {
	good := encodeFrame(frame{kind: kindHello, shard: 1, book: map[string]string{"a": "127.0.0.1:1"}})
	for cut := 0; cut < len(good); cut++ {
		// No proper prefix of a hello frame is itself a valid frame.
		if _, err := decodeFrame(good[:cut]); err == nil {
			t.Errorf("truncated frame at %d decoded", cut)
		}
	}
	// Same for an idle frame carrying the runner's counters.
	idle := encodeFrame(frame{kind: kindIdle, shard: 1, mark: 1, activity: 3,
		stats: netrun.Stats{SentMessages: 300, Outstanding: 2}})
	for cut := 0; cut < len(idle); cut++ {
		if _, err := decodeFrame(idle[:cut]); err == nil {
			t.Errorf("truncated idle frame at %d decoded", cut)
		}
	}
	// And a rederive frame whose node list is cut short.
	red := encodeFrame(frame{kind: kindRederive, req: 1, epoch: 1, nodes: []string{"long-node-name"}})
	for cut := 0; cut < len(red); cut++ {
		if _, err := decodeFrame(red[:cut]); err == nil {
			t.Errorf("truncated rederive frame at %d decoded", cut)
		}
	}
	if _, err := decodeFrame([]byte{0x7f}); err == nil {
		t.Error("unknown kind decoded")
	}
	if _, err := decodeFrame(nil); err == nil {
		t.Error("empty frame decoded")
	}
	// A tuples frame whose count field exceeds the payload must fail
	// on truncation, not allocate.
	bad := encodeFrame(frame{kind: kindTuples, shard: 1, req: 1})
	bad[len(bad)-1] = 0xff // count = huge (varint continuation...) -> corrupt
	if _, err := decodeFrame(bad); err == nil {
		t.Error("corrupt tuple count decoded")
	}
	// On the stream, a length prefix above the cap is refused before
	// the reader allocates the frame's buffer.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(appendUvarint(nil, maxFrameBytes+1))))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errFrameTooLarge) {
		t.Errorf("prefix above the cap: err = %v, want errFrameTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting an over-cap prefix allocated %d bytes", grew)
	}
}
