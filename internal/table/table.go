// Package table implements the storage layer of the NDlog engine:
// materialized relations with primary keys, secondary join indexes,
// per-tuple derivation counts (the count algorithm of Gupta et al. used
// in Section 4 of the paper), logical timestamps for pipelined
// semi-naïve evaluation, and soft-state TTL expiry.
//
// Rows and indexes are keyed by 64-bit hashes of the key columns
// (val.Tuple.HashOn), with collisions resolved by structural equality.
// Neither allocates a bucket per key (DESIGN.md §12): rows with one
// primary-key hash chain through the entries themselves, and an index
// bucket keeps its first entry inline in the map. Nothing on the
// insert/lookup/delete path formats a value into a string;
// val.Tuple.Key and KeyOn exist only for display and deterministic test
// output.
//
// Ownership: tables are single-owner (one engine node each, no internal
// locking). A stored Entry belongs to the table, and the table is what
// hashes a tuple — once, at Insert, with the hash cached on the entry.
// Callers may hold the Tuple (tuples are immutable) and the *Entry an
// Insert handed back, but must treat every Entry field other than the
// advertisement flag as read-only: indexes alias the same Entry
// pointers.
package table

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"ndlog/internal/val"
)

// Entry is a stored tuple plus engine bookkeeping. The field order packs
// it into the 96-byte allocation class with the row chain link included
// (pinned by TestLayoutSizes); pointers come first so the collector's
// scan stops early.
type Entry struct {
	Tuple val.Tuple
	// next chains the entries stored under one primary-key hash
	// (Table.rows): the row map holds the chain head, so a row costs no
	// bucket allocation of its own.
	next *Entry
	// Count is the number of outstanding derivations of this exact tuple
	// (the count algorithm). The tuple is removed when Count reaches 0.
	Count int
	// Stamp is the logical timestamp assigned at arrival; PSN joins match
	// a delta tuple only against entries with Stamp <= the delta's stamp,
	// which replaces the Δp/p-old bookkeeping of classic semi-naïve.
	Stamp uint64
	// Expires is the virtual time at which this entry dies — its
	// deadline, which makes it soft state; negative means never (hard
	// state).
	Expires float64
	// pkHash is the primary-key hash the entry is stored under; cached so
	// deletes and index maintenance never rehash the tuple.
	pkHash uint64
	// Adv records whether the engine has run this tuple's trigger strands
	// (its "advertisement"). The aggregate-selection optimization defers
	// or suppresses trigger strands for tuples that do not improve their
	// group aggregate; Adv prevents double advertisement.
	Adv bool
	// dead marks an entry removed from rows that may still sit in the
	// FIFO eviction list awaiting compaction.
	dead bool
}

// Status describes the effect of an Insert.
type Status uint8

// Insert outcomes.
const (
	// StatusNew: no tuple with this primary key existed; the tuple was added.
	StatusNew Status = iota
	// StatusDuplicate: the identical tuple existed; its count was bumped.
	StatusDuplicate
	// StatusReplaced: a different tuple with the same primary key existed
	// and was replaced (P2 key-update semantics: delete old, insert new).
	StatusReplaced
)

func (s Status) String() string {
	switch s {
	case StatusNew:
		return "new"
	case StatusDuplicate:
		return "duplicate"
	case StatusReplaced:
		return "replaced"
	}
	return fmt.Sprintf("status(%d)", uint8(s))
}

// Table is one materialized relation at one node.
type Table struct {
	name    string
	keys    []int // primary-key columns; empty means the whole row
	ttl     float64
	maxSize int

	rows map[uint64]*Entry // pk hash -> collision chain (Entry.next)
	n    int               // live row count

	// FIFO eviction list, maintained only for bounded tables
	// (maxSize > 0). head indexes the oldest candidate; dead counts
	// entries removed from rows but not yet compacted out of order.
	// compactOrder keeps both the consumed prefix and the dead remainder
	// bounded so deleted keys can no longer pin the backing array.
	order []*Entry
	head  int
	dead  int

	idxList []*Index

	// nextExpiry is a lower bound on the finite Expires of every live row
	// (+Inf while there is none): a sweep at an earlier time has nothing
	// to find and returns before scanning. Inserts lower it; a refresh
	// only moves a deadline later, and only a sweep's scan raises it.
	nextExpiry float64

	// post, when non-nil, maps every primary-key and index hash before
	// bucket lookup. Tests inject truncating maps to force structurally
	// distinct keys into one bucket; production tables leave it nil.
	post func(uint64) uint64
}

// Index is a secondary index over a fixed column set, keyed by the hash
// of the projected fields. Buckets may contain hash collisions; Match
// filters them with structural equality, Bucket leaves verification to
// the caller (the join path re-checks every field via unification).
type Index struct {
	cols []int
	m    map[uint64]Bucket
	post func(uint64) uint64 // the owning table's test hook
}

// Bucket is the ordered sequence of entries stored under one index hash.
// The first entry lives inline in the index map's value, so the common
// one-entry bucket allocates nothing; later entries overflow into rest.
// The sequence [first, rest...] is maintained exactly like a slice under
// append and swap-remove, so iteration order — which decides the order a
// join emits its derivations in — does not depend on the layout.
type Bucket struct {
	first *Entry
	rest  []*Entry
}

// Len returns the number of entries in the bucket.
func (b Bucket) Len() int {
	if b.first == nil {
		return 0
	}
	return 1 + len(b.rest)
}

// At returns the i'th entry, 0 <= i < Len().
func (b Bucket) At(i int) *Entry {
	if i == 0 {
		return b.first
	}
	return b.rest[i-1]
}

// Cols returns the indexed columns. Callers must not mutate the slice.
func (ix *Index) Cols() []int { return ix.cols }

func (ix *Index) slot(h uint64) uint64 {
	if ix.post != nil {
		return ix.post(h)
	}
	return h
}

// Bucket returns the raw collision bucket for hash h. Entries whose
// projection merely collides with the probe are included; callers must
// verify matches (e.g. by unifying every bound column).
func (ix *Index) Bucket(h uint64) Bucket { return ix.m[ix.slot(h)] }

// Match returns the entries whose projection onto the index columns
// equals vals, in bucket order, as a fresh slice the caller owns.
func (ix *Index) Match(vals []val.Value) []*Entry {
	b := ix.Bucket(val.HashValues(vals))
	n := b.Len()
	if n == 0 {
		return nil
	}
	out := make([]*Entry, 0, n)
	for i := 0; i < n; i++ {
		if e := b.At(i); ix.Matches(e, vals) {
			out = append(out, e)
		}
	}
	return out
}

// Matches reports whether e's projection onto the index columns equals
// vals: the collision filter for a caller walking a Bucket itself.
func (ix *Index) Matches(e *Entry, vals []val.Value) bool {
	if len(vals) != len(ix.cols) {
		return false
	}
	fs := e.Tuple.Fields
	for i, c := range ix.cols {
		if c < 0 || c >= len(fs) || !fs[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

func (ix *Index) key(e *Entry) uint64 { return ix.slot(e.Tuple.HashOn(ix.cols)) }

func (ix *Index) add(e *Entry) {
	k := ix.key(e)
	b := ix.m[k]
	if b.first == nil {
		b.first = e
	} else {
		b.rest = append(b.rest, e)
	}
	ix.m[k] = b
}

// remove swap-removes e from its bucket: the last entry of the sequence
// takes e's position.
func (ix *Index) remove(e *Entry) {
	k := ix.key(e)
	b := ix.m[k]
	last := len(b.rest) - 1
	switch {
	case b.first == e:
		if last < 0 {
			delete(ix.m, k)
			return
		}
		b.first = b.rest[last]
	default:
		i := 0
		for i <= last && b.rest[i] != e {
			i++
		}
		if i > last {
			return
		}
		b.rest[i] = b.rest[last]
	}
	b.rest[last] = nil
	b.rest = b.rest[:last]
	ix.m[k] = b
}

// New creates a table. keys lists primary-key columns (0-based); empty
// means the full row is the key. ttl < 0 means hard state. maxSize <= 0
// means unbounded.
func New(name string, keys []int, ttl float64, maxSize int) *Table {
	return &Table{
		name:       name,
		keys:       append([]int(nil), keys...),
		ttl:        ttl,
		maxSize:    maxSize,
		rows:       map[uint64]*Entry{},
		nextExpiry: math.Inf(1),
	}
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// Keys returns the primary-key columns (nil = whole row).
func (t *Table) Keys() []int { return t.keys }

// TTL returns the soft-state lifetime (<0 = hard state).
func (t *Table) TTL() float64 { return t.ttl }

// Len returns the number of live rows.
func (t *Table) Len() int { return t.n }

func (t *Table) pkHash(tp val.Tuple) uint64 {
	var h uint64
	if len(t.keys) == 0 {
		h = tp.Hash()
	} else {
		h = tp.HashOn(t.keys)
	}
	if t.post != nil {
		h = t.post(h)
	}
	return h
}

// pkEqual reports whether two tuples share a primary key.
func (t *Table) pkEqual(a, b val.Tuple) bool {
	if len(t.keys) == 0 {
		return a.Equal(b)
	}
	for _, c := range t.keys {
		aOOB := c < 0 || c >= len(a.Fields)
		bOOB := c < 0 || c >= len(b.Fields)
		if aOOB || bOOB {
			if aOOB != bOOB {
				return false
			}
			continue
		}
		if !a.Fields[c].Equal(b.Fields[c]) {
			return false
		}
	}
	return true
}

// find returns the entry whose primary key matches tp under hash h.
func (t *Table) find(h uint64, tp val.Tuple) *Entry {
	return t.findIn(t.rows[h], tp)
}

// findIn is find over a chain the caller already looked up.
func (t *Table) findIn(head *Entry, tp val.Tuple) *Entry {
	for e := head; e != nil; e = e.next {
		if t.pkEqual(e.Tuple, tp) {
			return e
		}
	}
	return nil
}

// removeRow unlinks e from the row map and indexes. popped reports that
// the caller already consumed e from the FIFO order window; otherwise e
// keeps a dead marker there until compaction.
func (t *Table) removeRow(e *Entry, popped bool) {
	if head := t.rows[e.pkHash]; head == e {
		if e.next == nil {
			delete(t.rows, e.pkHash)
		} else {
			t.rows[e.pkHash] = e.next
		}
	} else {
		for p := head; p != nil; p = p.next {
			if p.next == e {
				p.next = e.next
				break
			}
		}
	}
	e.next = nil
	t.n--
	t.removeFromIndexes(e)
	if t.maxSize > 0 {
		e.dead = true
		if !popped {
			t.dead++
			t.compactOrder()
		}
	}
}

// compactOrder bounds the eviction list: once the consumed prefix plus
// dead entries dominate, rewrite the live suffix into a fresh slice so
// the old backing array (and the tuples it pins) can be collected.
func (t *Table) compactOrder() {
	waste := t.head + t.dead
	if waste <= 32 || waste*2 <= len(t.order) {
		return
	}
	live := make([]*Entry, 0, len(t.order)-t.head-t.dead)
	for _, e := range t.order[t.head:] {
		if !e.dead {
			live = append(live, e)
		}
	}
	t.order = live
	t.head = 0
	t.dead = 0
}

// InsertResult reports what an Insert did, including any displaced tuples
// the caller must propagate as deletions.
type InsertResult struct {
	Status   Status
	Replaced val.Tuple // valid when Status == StatusReplaced
	// Entry is the row that now holds the inserted tuple: the new row, the
	// existing row of a duplicate, or the reused row of a replacement.
	// Callers that must touch the row after the insert (the engine's
	// advertisement flag) keep it instead of looking the tuple up again.
	Entry   *Entry
	Evicted []val.Tuple
	// Extended reports that a duplicate moved its row's deadline later
	// (see InsertUntil).
	Extended bool
}

// Deadline returns the expiry a row stored at virtual time now gets from
// the table's own lifetime: now + TTL for soft state, -1 (never) for
// hard state.
func (t *Table) Deadline(now float64) float64 {
	if t.ttl < 0 {
		return -1
	}
	return now + t.ttl
}

// Insert adds tp with the given logical stamp at virtual time now, under
// the table's own lifetime: InsertUntil(tp, stamp, Deadline(now)).
func (t *Table) Insert(tp val.Tuple, stamp uint64, now float64) InsertResult {
	return t.InsertUntil(tp, stamp, t.Deadline(now))
}

// InsertUntil adds tp with the given logical stamp and deadline (expires
// < 0: never). A tuple with an existing primary key but different fields
// replaces the old row; the displaced tuple is returned so the engine
// can propagate its deletion. The reused row starts over as the new
// tuple's: count one, the new stamp and deadline, not yet advertised —
// the displaced tuple's Adv says nothing about whether the new one's
// trigger strands have run.
//
// A duplicate of a row with a finite deadline — soft state, declared or
// inherited from soft support — is a refresh (Section 4.2): the row keeps
// the later of the two deadlines and its count stays one, and Extended
// reports whether the deadline moved. A duplicate of a hard row bumps its
// count if it is hard too (the count algorithm); a soft one changes
// nothing, since the row already outlives it.
func (t *Table) InsertUntil(tp val.Tuple, stamp uint64, expires float64) InsertResult {
	h := t.pkHash(tp)
	if expires >= 0 {
		t.nextExpiry = min(t.nextExpiry, expires)
	}
	head := t.rows[h]
	if e := t.findIn(head, tp); e != nil {
		if e.Tuple.Equal(tp) {
			res := InsertResult{Status: StatusDuplicate, Entry: e}
			switch {
			case e.Expires < 0:
				if expires < 0 {
					e.Count++
				}
			case expires < 0 || expires > e.Expires:
				e.Expires = expires
				res.Extended = true
			}
			return res
		}
		old := e.Tuple
		t.removeFromIndexes(e)
		e.Tuple = tp
		e.Count = 1
		e.Stamp = stamp
		e.Expires = expires
		e.Adv = false
		t.addToIndexes(e)
		return InsertResult{Status: StatusReplaced, Entry: e, Replaced: old}
	}
	e := &Entry{Tuple: tp, next: head, Count: 1, Stamp: stamp, Expires: expires, pkHash: h}
	t.rows[h] = e
	t.n++
	t.addToIndexes(e)
	res := InsertResult{Status: StatusNew, Entry: e}
	if t.maxSize > 0 {
		t.order = append(t.order, e)
		res.Evicted = t.evictOverflow()
	}
	return res
}

// evictOverflow drops the oldest rows until the table fits maxSize.
func (t *Table) evictOverflow() []val.Tuple {
	var evicted []val.Tuple
	for t.n > t.maxSize && t.head < len(t.order) {
		e := t.order[t.head]
		t.head++
		if e.dead {
			t.dead--
			continue
		}
		t.removeRow(e, true)
		evicted = append(evicted, e.Tuple)
	}
	t.compactOrder()
	return evicted
}

// Delete decrements the derivation count of tp. It returns (gone,
// existed): existed is false if the exact tuple is not present; gone is
// true when the count reached zero and the row was removed.
func (t *Table) Delete(tp val.Tuple) (gone, existed bool) {
	e := t.find(t.pkHash(tp), tp)
	if e == nil || !e.Tuple.Equal(tp) {
		return false, false
	}
	e.Count--
	if e.Count > 0 {
		return false, true
	}
	t.removeRow(e, false)
	return true, true
}

// DeleteByKey removes the row whose primary key matches tp regardless of
// its non-key fields and derivation count, returning the removed tuple.
// Used for base-table updates where the new value displaces the old.
func (t *Table) DeleteByKey(tp val.Tuple) (val.Tuple, bool) {
	e := t.find(t.pkHash(tp), tp)
	if e == nil {
		return val.Tuple{}, false
	}
	t.removeRow(e, false)
	return e.Tuple, true
}

// Contains reports whether the exact tuple is stored.
func (t *Table) Contains(tp val.Tuple) bool {
	e := t.find(t.pkHash(tp), tp)
	return e != nil && e.Tuple.Equal(tp)
}

// Get returns the entry with tp's primary key, if any.
func (t *Table) Get(tp val.Tuple) (*Entry, bool) {
	e := t.find(t.pkHash(tp), tp)
	return e, e != nil
}

// KeyChain returns the head of the collision chain stored under
// primary-key hash h — the hash of the key columns in Keys order, or
// Tuple.Hash for a whole-row key; walk it with Entry.Next. It holds the
// at most one row with a given key plus any rows whose keys merely
// collide, so callers must verify matches, as with Index.Bucket.
// Read-only: the chain is the table's own row storage.
func (t *Table) KeyChain(h uint64) *Entry {
	if t.post != nil {
		h = t.post(h)
	}
	return t.rows[h]
}

// Next returns the entry after e on its primary-key collision chain.
func (e *Entry) Next() *Entry { return e.next }

// Count returns the derivation count of the exact tuple (0 if absent).
func (t *Table) Count(tp val.Tuple) int {
	e := t.find(t.pkHash(tp), tp)
	if e == nil || !e.Tuple.Equal(tp) {
		return 0
	}
	return e.Count
}

// Scan visits every live entry; return false from fn to stop early.
func (t *Table) Scan(fn func(*Entry) bool) {
	for _, head := range t.rows {
		for e := head; e != nil; e = e.next {
			if !fn(e) {
				return
			}
		}
	}
}

// Tuples returns all live tuples in deterministic (Tuple.Compare) order.
func (t *Table) Tuples() []val.Tuple {
	out := make([]val.Tuple, 0, t.n)
	t.Scan(func(e *Entry) bool {
		out = append(out, e.Tuple)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// EnsureIndex builds (or reuses) a secondary index over cols and returns
// its handle for Bucket/Match lookups. Handles stay valid for the life
// of the table, so callers resolve an index once instead of per probe.
func (t *Table) EnsureIndex(cols []int) *Index {
	for _, ix := range t.idxList {
		if slices.Equal(ix.cols, cols) {
			return ix
		}
	}
	ix := &Index{cols: append([]int(nil), cols...), m: map[uint64]Bucket{}, post: t.post}
	t.Scan(func(e *Entry) bool {
		ix.add(e)
		return true
	})
	t.idxList = append(t.idxList, ix)
	return ix
}

// Indexes returns the secondary indexes the table maintains, in creation
// order. Callers must not mutate the slice.
func (t *Table) Indexes() []*Index { return t.idxList }

func (t *Table) addToIndexes(e *Entry) {
	for _, ix := range t.idxList {
		ix.add(e)
	}
}

func (t *Table) removeFromIndexes(e *Entry) {
	for _, ix := range t.idxList {
		ix.remove(e)
	}
}

// ExpiryDue reports whether a sweep at virtual time now could find a
// lapsed row: false whenever now is still below the table's
// earliest-expiry bound, and so always for a table with no finite
// deadline.
func (t *Table) ExpiryDue(now float64) bool { return now >= t.nextExpiry }

// Expired returns the rows whose deadline has lapsed at virtual time now,
// ordered by Stamp (ties by Tuple.Compare) so a sweep's order does not
// depend on map iteration. The caller removes the rows it is handed:
// the scan recomputes the earliest-expiry bound over the rows it does
// not report.
func (t *Table) Expired(now float64) []*Entry {
	if !t.ExpiryDue(now) {
		return nil
	}
	var due []*Entry
	next := math.Inf(1)
	t.Scan(func(e *Entry) bool {
		switch {
		case e.Expires < 0: // never expires
		case e.Expires <= now:
			due = append(due, e)
		default:
			next = min(next, e.Expires)
		}
		return true
	})
	t.nextExpiry = next
	slices.SortFunc(due, func(a, b *Entry) int {
		if c := cmp.Compare(a.Stamp, b.Stamp); c != 0 {
			return c
		}
		return a.Tuple.Compare(b.Tuple)
	})
	return due
}

// Catalog is the set of tables at one node.
type Catalog struct {
	tables map[string]*Table
	// sorted holds the same tables in name order.
	sorted []*Table
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog { return &Catalog{tables: map[string]*Table{}} }

// Declare creates the table if absent and returns it. Redeclaring an
// existing name returns the existing table unchanged.
func (c *Catalog) Declare(name string, keys []int, ttl float64, maxSize int) *Table {
	if t, ok := c.tables[name]; ok {
		return t
	}
	t := New(name, keys, ttl, maxSize)
	c.tables[name] = t
	i, _ := slices.BinarySearchFunc(c.sorted, name, func(u *Table, name string) int { return cmp.Compare(u.name, name) })
	// Clipped, so the insert copies: a caller still ranging over the old
	// slice (an expiry sweep whose hook reads a table it creates) keeps
	// seeing it unchanged.
	c.sorted = slices.Insert(slices.Clip(c.sorted), i, t)
	return t
}

// Tables returns the tables in name order. Callers must not mutate the
// slice; a Declare or first Get replaces it with a new one.
func (c *Catalog) Tables() []*Table { return c.sorted }

// Get returns the table for name, creating a default (whole-row key,
// hard-state) table on first use. NDlog predicates without a materialize
// declaration behave this way in P2.
func (c *Catalog) Get(name string) *Table {
	if t, ok := c.tables[name]; ok {
		return t
	}
	return c.Declare(name, nil, -1, 0)
}

// Has reports whether a table exists without creating it.
func (c *Catalog) Has(name string) bool {
	_, ok := c.tables[name]
	return ok
}

// Names returns the declared table names in sorted order.
func (c *Catalog) Names() []string {
	out := make([]string, len(c.sorted))
	for i, t := range c.sorted {
		out[i] = t.name
	}
	return out
}
