package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"ndlog/internal/engine"
	"ndlog/internal/val"
)

// FuzzWALReplay feeds arbitrary bytes to the store as an on-disk WAL:
// recovery must never panic, must be idempotent (a second open after
// the truncating first open sees the same records with nothing left to
// truncate), and appends after recovery must survive a clean reopen —
// i.e. a corrupt tail can be dropped but never partially applied.
func FuzzWALReplay(f *testing.F) {
	frame := func(payload []byte) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		return append(hdr[:], payload...)
	}
	f.Add([]byte{})
	f.Add(frame([]byte("hello")))
	f.Add(append(frame([]byte("hello")), frame([]byte("world"))[:7]...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	// A netrun WAL record (clock, then a delta batch) holding a soft delta
	// that carries its lifetime.
	soft := engine.Delta{Sign: +1, Life: 2, Tuple: val.NewTuple("beacon", val.NewAddr("a"), val.NewInt(1))}
	f.Add(frame(engine.AppendDeltas(make([]byte, 8), []engine.Delta{soft})))
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, genName(walPrefix, 1)), wal, 0o644); err != nil {
			t.Skip()
		}
		s, rec, err := Open(dir, Options{})
		if err != nil {
			t.Skip() // unreadable dir, not a framing outcome
		}
		if err := s.Append([]byte("post-recovery")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer s2.Close()
		if rec2.Truncated {
			t.Fatal("recovery not idempotent: second open truncated again")
		}
		if len(rec2.Records) != len(rec.Records)+1 {
			t.Fatalf("records %d after reopen, want %d", len(rec2.Records), len(rec.Records)+1)
		}
		for i, r := range rec.Records {
			if !bytes.Equal(rec2.Records[i], r) {
				t.Fatalf("record %d changed across reopen", i)
			}
		}
		if string(rec2.Records[len(rec.Records)]) != "post-recovery" {
			t.Fatal("post-recovery append lost")
		}
	})
}
