// Package durable is the persistence layer under a sharded NDlog
// deployment: an append-only, CRC-framed write-ahead log of base-fact
// deltas plus periodic whole-node snapshots, organised as numbered
// generations so a worker killed mid-run (kill -9) reopens its data
// directory and recovers to the last committed record.
//
// Layout. A Store owns one directory holding at most one live
// generation G: an optional snapshot file snap-<G> (the node's
// exported state, written atomically via rename) and a log file
// wal-<G> holding the records appended since that snapshot. Taking a
// snapshot opens generation G+1 and deletes generation G, which is how
// the WAL is truncated. Record payloads are opaque to this package —
// the engine layers its own delta encoding inside them.
//
// Framing. Each WAL record is [len u32le][crc32 u32le][payload], crc
// over the payload (IEEE). Snapshot files are [crc32 u32le][payload].
// On open, the WAL is replayed until the first short, oversized, or
// CRC-failing record; the file is truncated back to the last good
// record, so a torn tail from a crash mid-write is dropped rather than
// poisoning recovery.
//
// Durability. Append buffers records in memory; Commit writes them to
// the log and fsyncs it, so a crash loses nothing committed — the
// promise a caller that commits before it sends relies on. Group commit
// falls out of the Append/Commit split: all records appended during one
// evaluator drain are framed and synced as a single batch.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

// Options configures a Store. The zero value is valid: the default
// snapshot threshold.
type Options struct {
	// SnapshotBytes is the WAL size beyond which ShouldSnapshot reports
	// true. A value ≤ 0 means 256 KiB; tests lower it to force a roll.
	SnapshotBytes int64
}

// maxRecord bounds a single WAL record payload. A record holds one
// drain's worth of deltas for one node; 16 MiB is far beyond any real
// batch and small enough that a corrupt length field cannot drive a
// huge allocation.
const maxRecord = 16 << 20

// Recovered is what Open found on disk: the latest snapshot (nil if
// none was ever taken), the WAL records appended after it, in order,
// and whether a torn or corrupt tail was truncated to reach them.
type Recovered struct {
	Snapshot  []byte
	Records   [][]byte
	Truncated bool
}

// Empty reports whether recovery found no persisted state at all.
func (r *Recovered) Empty() bool {
	return len(r.Snapshot) == 0 && len(r.Records) == 0
}

// Store is one node's durable state: a live WAL generation plus the
// snapshot it extends. Safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	gen      uint64
	wal      *os.File
	walBytes int64  // framed bytes in the wal file
	pending  []byte // framed records not yet written
	closed   bool
	commits  uint64 // commit batches written (see Commits)
	syncs    uint64 // fsyncs issued (see Syncs)
}

const (
	snapPrefix = "snap-"
	walPrefix  = "wal-"
)

func genName(prefix string, gen uint64) string {
	return fmt.Sprintf("%s%016x", prefix, gen)
}

// Open opens (creating if needed) the store rooted at dir and recovers
// whatever a previous incarnation persisted there. The caller replays
// Recovered into its evaluator, then appends new records as usual; a
// fresh Snapshot right after recovery is the idiomatic way to fold the
// replayed tail back into a compact generation.
func Open(dir string, opts Options) (*Store, Recovered, error) {
	if opts.SnapshotBytes <= 0 {
		opts.SnapshotBytes = 256 << 10
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovered{}, err
	}
	gen, err := latestGen(dir)
	if err != nil {
		return nil, Recovered{}, err
	}
	var rec Recovered
	if gen == 0 {
		gen = 1 // first incarnation: generation 1, no snapshot
	} else {
		snap, err := readSnapshot(filepath.Join(dir, genName(snapPrefix, gen)))
		if err != nil && !os.IsNotExist(err) {
			return nil, Recovered{}, err
		}
		rec.Snapshot = snap
	}
	walPath := filepath.Join(dir, genName(walPrefix, gen))
	f, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, Recovered{}, err
	}
	records, good, truncated, err := scanWAL(f)
	if err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	if truncated {
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, Recovered{}, err
		}
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, Recovered{}, err
	}
	rec.Records = records
	rec.Truncated = truncated
	s := &Store{dir: dir, opts: opts, gen: gen, wal: f, walBytes: good}
	s.removeStale()
	return s, rec, nil
}

// latestGen scans dir for generation files and returns the highest
// generation number seen, or 0 if the directory holds none.
func latestGen(dir string) (uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var best uint64
	for _, e := range ents {
		name := e.Name()
		var rest string
		switch {
		case strings.HasPrefix(name, snapPrefix):
			rest = name[len(snapPrefix):]
		case strings.HasPrefix(name, walPrefix):
			rest = name[len(walPrefix):]
		default:
			continue
		}
		g, err := strconv.ParseUint(rest, 16, 64)
		if err != nil || g == 0 {
			continue // tmp files, strays
		}
		if g > best {
			best = g
		}
	}
	return best, nil
}

// removeStale deletes generation files older than the live generation
// (left behind if a crash interrupted a snapshot's cleanup step) and
// any abandoned snapshot temp files. Best-effort.
func (s *Store) removeStale() {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			os.Remove(filepath.Join(s.dir, name))
			continue
		}
		var rest string
		switch {
		case strings.HasPrefix(name, snapPrefix):
			rest = name[len(snapPrefix):]
		case strings.HasPrefix(name, walPrefix):
			rest = name[len(walPrefix):]
		default:
			continue
		}
		if g, err := strconv.ParseUint(rest, 16, 64); err == nil && g < s.gen {
			os.Remove(filepath.Join(s.dir, name))
		}
	}
}

// readSnapshot reads and verifies a [crc][payload] snapshot file.
func readSnapshot(path string) ([]byte, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < 4 {
		return nil, fmt.Errorf("durable: snapshot %s: short file", path)
	}
	want := binary.LittleEndian.Uint32(b)
	payload := b[4:]
	if crc32.ChecksumIEEE(payload) != want {
		return nil, fmt.Errorf("durable: snapshot %s: checksum mismatch", path)
	}
	return payload, nil
}

// scanWAL parses records from the start of f, returning the parsed
// payloads, the offset just past the last good record, and whether
// trailing bytes past that offset must be discarded.
func scanWAL(f *os.File) (records [][]byte, good int64, truncated bool, err error) {
	info, err := f.Stat()
	if err != nil {
		return nil, 0, false, err
	}
	size := info.Size()
	if size == 0 {
		return nil, 0, false, nil
	}
	b := make([]byte, size)
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, 0, false, err
	}
	off := int64(0)
	for int64(len(b))-off >= 8 {
		n := int64(binary.LittleEndian.Uint32(b[off:]))
		want := binary.LittleEndian.Uint32(b[off+4:])
		if n > maxRecord || off+8+n > int64(len(b)) {
			break // torn or corrupt length
		}
		payload := b[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != want {
			break // corrupt record: stop at last good
		}
		records = append(records, append([]byte(nil), payload...))
		off += 8 + n
	}
	return records, off, off != size, nil
}

// Append buffers one record for the next Commit. The payload is copied.
func (s *Store) Append(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("durable: record of %d bytes exceeds limit", len(payload))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	s.pending = append(s.pending, hdr[:]...)
	s.pending = append(s.pending, payload...)
	return nil
}

// Commit writes all appended records to the log in one batch and
// fsyncs it. With nothing appended it does nothing.
func (s *Store) Commit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	return s.commitLocked()
}

func (s *Store) commitLocked() error {
	if len(s.pending) == 0 {
		return nil
	}
	if _, err := s.wal.Write(s.pending); err != nil {
		return err
	}
	s.walBytes += int64(len(s.pending))
	s.pending = s.pending[:0]
	s.commits++
	if err := s.wal.Sync(); err != nil {
		return err
	}
	s.syncs++
	return nil
}

// Commits returns the number of commit batches written to the live WAL
// (Commit calls that had pending records).
func (s *Store) Commits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.commits
}

// Syncs returns the number of fsyncs issued against the live WAL: one
// per Commit that had something to make durable.
func (s *Store) Syncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// WALBytes returns the committed size of the live WAL generation.
func (s *Store) WALBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walBytes + int64(len(s.pending))
}

// ShouldSnapshot reports whether the WAL has outgrown the configured
// snapshot threshold.
func (s *Store) ShouldSnapshot() bool {
	return s.WALBytes() >= s.opts.SnapshotBytes
}

// Snapshot persists a full-state blob and rolls the WAL: the snapshot
// is written atomically (tmp + rename + sync), a fresh empty log opens
// the next generation, and the superseded generation is deleted. Any
// records still pending are dropped — the snapshot subsumes them. On
// error the store stays on its current generation, pending records
// included, and nothing of the next one is left on disk.
func (s *Store) Snapshot(state []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("durable: store closed")
	}
	next := s.gen + 1
	snapPath := filepath.Join(s.dir, genName(snapPrefix, next))
	tmp := snapPath + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(state))
	if _, err := f.Write(crc[:]); err == nil {
		_, err = f.Write(state)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, snapPath); err != nil {
		os.Remove(tmp)
		return err
	}
	// The snapshot goes in first: a crash from here on reopens at next
	// with everything up to now in the snapshot, whereas a wal-<next>
	// without its snapshot would reopen empty. A failure from here on must
	// take generation next back out, because the store keeps appending to
	// s.gen, which the next Open would otherwise delete as stale.
	walPath := filepath.Join(s.dir, genName(walPrefix, next))
	wal, err := os.OpenFile(walPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return errors.Join(err, os.Remove(snapPath))
	}
	if err := syncDir(s.dir); err != nil {
		wal.Close()
		return errors.Join(err, os.Remove(walPath), os.Remove(snapPath))
	}
	old := s.gen
	s.wal.Close()
	s.wal = wal
	s.gen = next
	s.walBytes = 0
	s.pending = s.pending[:0]
	os.Remove(filepath.Join(s.dir, genName(snapPrefix, old)))
	os.Remove(filepath.Join(s.dir, genName(walPrefix, old)))
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes and fsyncs outstanding records and releases the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	err := s.commitLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.closed = true
	return err
}

// Destroy closes the store and deletes its directory — used when a
// node is released to another shard and this copy of its state must
// not resurrect on restart.
func (s *Store) Destroy() error {
	s.mu.Lock()
	if !s.closed {
		s.wal.Close()
		s.closed = true
	}
	dir := s.dir
	s.mu.Unlock()
	return os.RemoveAll(dir)
}
