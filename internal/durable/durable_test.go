package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) (*Store, Recovered) {
	t.Helper()
	s, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s, rec
}

func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, rec := openT(t, dir, Options{})
	if !rec.Empty() || rec.Truncated {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	records := [][]byte{[]byte("alpha"), {}, []byte("gamma-longer-record")}
	for _, r := range records {
		if err := s.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, rec2 := openT(t, dir, Options{})
	defer s2.Close()
	if rec2.Snapshot != nil || rec2.Truncated {
		t.Fatalf("unexpected snapshot/truncation: %+v", rec2)
	}
	if len(rec2.Records) != len(records) {
		t.Fatalf("recovered %d records, want %d", len(rec2.Records), len(records))
	}
	for i, r := range records {
		if !bytes.Equal(rec2.Records[i], r) {
			t.Errorf("record %d: %q vs %q", i, rec2.Records[i], r)
		}
	}
}

func TestSnapshotRollsGeneration(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append([]byte("pre-snapshot"))
	s.Commit()
	if err := s.Snapshot([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	s.Append([]byte("post-snapshot"))
	s.Commit()
	s.Close()

	// Only generation 2 files remain on disk.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{genName(snapPrefix, 2), genName(walPrefix, 2)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("dir = %v, want %v", names, want)
	}

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	if string(rec.Snapshot) != "STATE" {
		t.Errorf("snapshot = %q", rec.Snapshot)
	}
	if len(rec.Records) != 1 || string(rec.Records[0]) != "post-snapshot" {
		t.Errorf("records = %q; pre-snapshot WAL must be truncated", rec.Records)
	}
}

func TestCorruptWALRecovery(t *testing.T) {
	// Each case mutates a three-record WAL and says which records must
	// survive and whether truncation is reported.
	frame := func(payload string) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE([]byte(payload)))
		return append(hdr[:], payload...)
	}
	full := bytes.Join([][]byte{frame("one"), frame("two"), frame("three")}, nil)
	cases := []struct {
		name      string
		mutate    func([]byte) []byte
		survive   []string
		truncated bool
	}{
		{"intact", func(b []byte) []byte { return b }, []string{"one", "two", "three"}, false},
		{"torn tail", func(b []byte) []byte { return b[:len(b)-2] }, []string{"one", "two"}, true},
		{"torn header", func(b []byte) []byte { return b[:len(frame("one"))+3] }, []string{"one"}, true},
		{"bad crc middle", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(frame("one"))+8] ^= 0xff // flip a byte of "two"'s payload
			return c
		}, []string{"one"}, true},
		{"huge length", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint32(c[len(frame("one")):], maxRecord+1)
			return c
		}, []string{"one"}, true},
		{"garbage file", func(b []byte) []byte { return []byte("not a wal at all") }, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, genName(walPrefix, 1))
			if err := os.WriteFile(path, tc.mutate(append([]byte(nil), full...)), 0o644); err != nil {
				t.Fatal(err)
			}
			s, rec := openT(t, dir, Options{})
			var got []string
			for _, r := range rec.Records {
				got = append(got, string(r))
			}
			if !reflect.DeepEqual(got, tc.survive) {
				t.Errorf("recovered %q, want %q", got, tc.survive)
			}
			if rec.Truncated != tc.truncated {
				t.Errorf("truncated = %v, want %v", rec.Truncated, tc.truncated)
			}
			// Appends after a truncated recovery land after the last good
			// record and survive a clean reopen.
			s.Append([]byte("appended"))
			s.Commit()
			s.Close()
			_, rec2 := openT(t, dir, Options{})
			want := append(append([]string(nil), tc.survive...), "appended")
			got = nil
			for _, r := range rec2.Records {
				got = append(got, string(r))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("after reopen: %q, want %q", got, want)
			}
		})
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	if err := s.Snapshot([]byte("STATE")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, genName(snapPrefix, 2))
	b, _ := os.ReadFile(path)
	b[len(b)-1] ^= 0xff
	os.WriteFile(path, b, 0o644)
	if _, _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

func TestStaleGenerationCleanup(t *testing.T) {
	// A crash between snapshot rename and old-generation cleanup leaves
	// both generations on disk; Open must pick the newest and delete the
	// rest, including abandoned temp files.
	dir := t.TempDir()
	write := func(name string, b []byte) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	snap := func(payload string) []byte {
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE([]byte(payload)))
		return append(crc[:], payload...)
	}
	write(genName(walPrefix, 1), nil)
	write(genName(snapPrefix, 2), snap("NEW"))
	write(genName(snapPrefix, 3)+".tmp", []byte("abandoned"))
	s, rec := openT(t, dir, Options{})
	defer s.Close()
	if string(rec.Snapshot) != "NEW" || len(rec.Records) != 0 {
		t.Fatalf("recovered %+v", rec)
	}
	ents, _ := os.ReadDir(dir)
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	want := []string{genName(snapPrefix, 2), genName(walPrefix, 2)}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("dir = %v, want %v", names, want)
	}
}

// TestSyncPoliciesAndThreshold: the one sync policy is an fsync per
// commit that wrote something, and the snapshot threshold is honoured.
func TestSyncPoliciesAndThreshold(t *testing.T) {
	s, _ := openT(t, t.TempDir(), Options{SnapshotBytes: 16})
	defer s.Close()
	if s.ShouldSnapshot() {
		t.Error("empty store wants snapshot")
	}
	s.Append(bytes.Repeat([]byte("x"), 32))
	if !s.ShouldSnapshot() {
		t.Error("oversized WAL does not want snapshot")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := s.WALBytes(); got != 40 {
		t.Errorf("WALBytes = %d, want 40", got)
	}
	if err := s.Commit(); err != nil { // nothing appended: no fsync
		t.Fatal(err)
	}
	if s.Commits() != 1 || s.Syncs() != 1 {
		t.Errorf("commits = %d, syncs = %d, want 1 and 1", s.Commits(), s.Syncs())
	}

	// A threshold ≤ 0 is the default, 256 KiB: there is no setting that
	// lets the WAL grow without bound.
	s2, _ := openT(t, t.TempDir(), Options{SnapshotBytes: -1})
	defer s2.Close()
	s2.Append(bytes.Repeat([]byte("y"), 255<<10))
	if s2.ShouldSnapshot() {
		t.Error("a WAL under 256 KiB wants a snapshot at the default threshold")
	}
	s2.Append(bytes.Repeat([]byte("y"), 1<<10))
	if !s2.ShouldSnapshot() {
		t.Error("a negative threshold still disables snapshots")
	}
	if err := s2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDestroy(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "node-a")
	s, _ := openT(t, dir, Options{})
	s.Append([]byte("doomed"))
	s.Commit()
	if err := s.Destroy(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("dir survives destroy: %v", err)
	}
	if err := s.Append([]byte("late")); err == nil {
		t.Error("append after destroy succeeded")
	}
}

// TestFailedSnapshotKeepsLaterCommits: a Snapshot that fails after its
// snapshot file is in place must leave nothing of the next generation
// behind. The store keeps appending to the current one; a leftover
// snap-<G+1> would make the next Open start there and delete those
// records as stale.
func TestFailedSnapshotKeepsLaterCommits(t *testing.T) {
	dir := t.TempDir()
	s, _ := openT(t, dir, Options{})
	s.Append([]byte("before"))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	// A directory where the next log belongs makes opening it fail.
	blocker := filepath.Join(dir, genName(walPrefix, 2))
	if err := os.Mkdir(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot([]byte("state")); err == nil {
		t.Fatal("Snapshot succeeded with the next log's name taken")
	}
	s.Append([]byte("after"))
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}

	s2, rec := openT(t, dir, Options{})
	defer s2.Close()
	want := [][]byte{[]byte("before"), []byte("after")}
	if rec.Snapshot != nil || !reflect.DeepEqual(rec.Records, want) {
		t.Fatalf("recovered snapshot=%q records=%q, want no snapshot and %q", rec.Snapshot, rec.Records, want)
	}
}
