package shard

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

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
			DataDir: "/var/lib/ndlog"},
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

	// A manifest written for a removed option fails loudly, naming the
	// key, instead of loading with the option silently dropped.
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"arena", "psn_batch", "shared_sockets", "group_commit", "aggsel_period", "loss_first", "aggsel_preds", "fsync", "snapshot_bytes", "parallelism"} {
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
		if key == "fsync" && (err == nil || !strings.Contains(err.Error(), "WAL-before-wire")) {
			t.Errorf("manifest carrying fsync: err = %v, want the reason it went", err)
		}
		if key == "snapshot_bytes" && (err == nil || !strings.Contains(err.Error(), "without bound")) {
			t.Errorf("manifest carrying snapshot_bytes: err = %v, want the reason it went", err)
		}
		if key == "parallelism" && (err == nil || !strings.Contains(err.Error(), "one node after another")) {
			t.Errorf("manifest carrying parallelism: err = %v, want the reason it went", err)
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
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("bad manifest %d validated", i)
		}
	}
	if _, err := (Options{Mode: "warp"}).Engine(); err == nil {
		t.Error("bad mode accepted")
	}
}

// sampleTuple holds the values JSON would not carry exactly: a NaN, a
// negative zero, an empty list and a nested one.
func sampleTuple() val.Tuple {
	return val.NewTuple("shortestPath",
		val.NewAddr("a"), val.NewAddr("b"),
		val.NewList(val.NewAddr("a"), val.NewAddr("b")), val.NewFloat(1.5),
		val.NewFloat(math.NaN()), val.NewFloat(math.Copysign(0, -1)),
		val.NewList(), val.NewList(val.NewList(val.NewInt(1)), val.NewString("x")))
}

// sampleFrames is at least one well-formed frame of every kind: the
// round-trip test's inputs and the decoder fuzz target's seeds.
func sampleFrames() []frame {
	tup := sampleTuple()
	return []frame{
		{Kind: kindHello, Shard: 2, Book: map[string]string{"a": "127.0.0.1:1", "b": "127.0.0.1:2"}},
		{Kind: kindBook, Epoch: 3, Book: map[string]string{"a": "127.0.0.1:1"}},
		{Kind: kindReady, Shard: 1, Epoch: 3},
		{Kind: kindStart},
		{Kind: kindIdle, Shard: 3, Epoch: 2, Mark: 4, Activity: 42,
			Stats: &netrun.Stats{SentBytes: 1, SentMessages: 2, RecvBytes: 3, RecvMessages: 4, Dropped: 5, Fenced: 6,
				Retransmits: 7, Duplicates: 8, Reordered: 9, AckFrames: 10, Drains: 11, Outstanding: 12}},
		{Kind: kindQuery, Req: 7, Pred: "shortestPath"},
		{Kind: kindTuples, Shard: 1, Req: 7, Tuples: gather{tup, tup}},
		{Kind: kindTuples, Shard: 1, Req: 7}, // nothing gathered
		{Kind: kindPong},
		{Kind: kindPong, Mark: 12},
		{Kind: kindStop},
		{Kind: kindBye, Shard: 2, Stats: &netrun.Stats{SentMessages: 10, RecvMessages: 10}},
		{Kind: kindRelease, Req: 11, Epoch: 2, Node: "c"},
		{Kind: kindState, Shard: 1, Req: 11, Blob: []byte{0x4E, 1, 2, 3}},
		{Kind: kindState, Shard: 1, Req: 11, Blob: []byte{}}, // empty state
		{Kind: kindAdopt, Req: 12, Epoch: 3, Node: "c", Blob: []byte{9, 9}},
		{Kind: kindAdopted, Shard: 2, Req: 12, Node: "c", Addr: "127.0.0.1:9"},
		{Kind: kindResume, Epoch: 3, Nodes: []string{"c", "d"}},
		{Kind: kindResumed, Shard: 2, Epoch: 3},
		{Kind: kindIdle, Shard: 1, Epoch: 4, Activity: 8,
			Stats: &netrun.Stats{SentMessages: 7, RecvMessages: 7}},
		{Kind: kindRederive, Req: 13, Epoch: 3, Nodes: []string{"b", "c"}},
		{Kind: kindRederive, Req: 14, Epoch: 3}, // no nodes: a no-op sweep
		{Kind: kindRederived, Shard: 1, Req: 13},
	}
}

// wireTuples is ts in the data plane's tuple encoding: equal bytes mean
// equal values, NaNs and negative zeros included.
func wireTuples(ts []val.Tuple) []byte {
	var b []byte
	for _, t := range ts {
		b = val.AppendTuple(b, t)
	}
	return b
}

// TestControlFrameRoundTrip: every sample frame decodes to itself —
// gathered tuples bit for bit, every other field exactly.
func TestControlFrameRoundTrip(t *testing.T) {
	for _, f := range sampleFrames() {
		got, err := decodeFrame(encodeFrame(f))
		if err != nil {
			t.Fatalf("kind %d: %v", f.Kind, err)
		}
		if len(got.Tuples) != len(f.Tuples) || !bytes.Equal(wireTuples(got.Tuples), wireTuples(f.Tuples)) {
			t.Errorf("kind %d: tuples %v, want %v", f.Kind, got.Tuples, f.Tuples)
		}
		if !bytes.Equal(got.Blob, f.Blob) {
			t.Errorf("kind %d: blob %v, want %v", f.Kind, got.Blob, f.Blob)
		}
		got.Tuples, got.Blob, f.Tuples, f.Blob = nil, nil, nil, nil
		if !reflect.DeepEqual(got, f) {
			t.Errorf("kind %d: round trip mismatch:\n%+v\n%+v", f.Kind, got, f)
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
		got, err := decodeFrame(encodeFrame(frame{Kind: kind, Shard: 1, Stats: &want}))
		if err != nil {
			t.Fatalf("kind %d: %v", kind, err)
		}
		if got.stats() != want {
			t.Errorf("kind %d: stats %+v, want %+v", kind, got.stats(), want)
		}
	}
}

func TestControlFrameCorrupt(t *testing.T) {
	for _, f := range []frame{
		{Kind: kindHello, Shard: 1, Book: map[string]string{"a": "127.0.0.1:1"}},
		// An idle frame carrying the runner's counters.
		{Kind: kindIdle, Shard: 1, Mark: 1, Activity: 3, Stats: &netrun.Stats{SentMessages: 300, Outstanding: 2}},
		// A rederive frame whose node list is cut short.
		{Kind: kindRederive, Req: 1, Epoch: 1, Nodes: []string{"long-node-name"}},
		// A tuples frame cut inside its delta batch.
		{Kind: kindTuples, Shard: 1, Req: 7, Tuples: gather{sampleTuple()}},
	} {
		// No proper prefix of a frame is itself a valid frame.
		good := encodeFrame(f)
		for cut := 0; cut < len(good); cut++ {
			if _, err := decodeFrame(good[:cut]); err == nil {
				t.Errorf("kind %d: truncated frame at %d decoded", f.Kind, cut)
			}
		}
	}
	for _, bad := range []string{
		"",
		"\x7f",
		"{}",                        // no kind
		`{"kind":200}`,              // unknown kind
		`{"kind":1,"shard":"one"}`,  // a field of the wrong type
		`{"kind":7,"tuples":"AQA="`, // unterminated
	} {
		if _, err := decodeFrame([]byte(bad)); err == nil {
			t.Errorf("%q decoded", bad)
		}
	}
	// A gathered batch whose delta count exceeds its payload fails on
	// truncation, not by allocating the count.
	batch := base64.StdEncoding.EncodeToString(binary.AppendUvarint([]byte{1}, 1<<40))
	if _, err := decodeFrame(fmt.Appendf(nil, `{"kind":%d,"tuples":%q}`, kindTuples, batch)); err == nil {
		t.Error("corrupt tuple count decoded")
	}
	// On the stream, a length prefix above the cap is refused before
	// the reader allocates the frame's buffer.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bufio.NewReader(bytes.NewReader(binary.AppendUvarint(nil, maxFrameBytes+1))))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, errFrameTooLarge) {
		t.Errorf("prefix above the cap: err = %v, want errFrameTooLarge", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("rejecting an over-cap prefix allocated %d bytes", grew)
	}
}
