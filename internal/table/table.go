// Package table implements the storage layer of the NDlog engine:
// materialized relations with primary keys, secondary join indexes,
// per-tuple derivation counts (the count algorithm of Gupta et al. used
// in Section 4 of the paper), logical timestamps for pipelined
// semi-naïve evaluation, and soft-state TTL expiry.
//
// Rows and indexes are keyed by 64-bit hashes of the key columns
// (val.Tuple.HashOn), with collisions resolved by structural equality.
// A table keeps its entries in a slab (DESIGN.md §12, "Rows in slabs"):
// chunks that grow by about a fifth each, addressed by a uint32 slot,
// so storing a row allocates nothing of its own, and the row map, a
// map[uint64]uint32 of chain heads, holds no pointer for the collector
// to scan. Rows with one primary-key hash chain through their entries'
// next slots. A deleted row's slot goes on a free list that the next
// insert takes, and a table whose free slots outnumber its rows trims
// the free end of its slab. An index bucket is a chain of slots too: the
// index map holds its ends, and a slab parallel to the entries holds
// each slot's neighbours. Nothing on the insert/lookup/delete path
// formats a value into a string; val.Tuple.Key and KeyOn exist only for
// display and deterministic test output.
//
// A table holds the tuples of one predicate, its name: an entry keeps
// only the tuple's fields, and Table.Tuple puts the name back.
//
// Ownership: tables are single-owner (one engine node each, no internal
// locking). A stored Entry belongs to the table. Callers may hold the
// fields (values are immutable) and must treat every Entry field other
// than the advertisement flag as read-only: indexes refer to the same
// slots. An *Entry names a slot, not a row: once its row is deleted the
// slot may hold another. A caller that keeps a row across other inserts
// and deletes keeps the Row an Insert handed back, which resolves to nil
// once its row has left the slot.
package table

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"ndlog/internal/val"
)

// Entry is a stored tuple plus engine bookkeeping, one slot of its
// table's slab. It packs into 56 bytes (pinned by TestLayoutSizes): the
// predicate is the table's and is not kept, nor is the primary-key hash
// — every delete hashes its probe tuple anyway and hands the hash on —
// and the collision link, the slot's generation, the count and the
// advertisement flag share two words.
type Entry struct {
	// Fields are the stored tuple's fields (Table.Tuple rebuilds the
	// tuple).
	Fields []val.Value
	// Stamp is the logical timestamp assigned at arrival; PSN joins match
	// a delta tuple only against entries with Stamp <= the delta's stamp,
	// which replaces the Δp/p-old bookkeeping of classic semi-naïve.
	Stamp uint64
	// Expires is the virtual time at which this entry dies — its
	// deadline, which makes it soft state; negative means never (hard
	// state).
	Expires float64
	// Count is the number of outstanding derivations of this exact tuple
	// (the count algorithm). The tuple is removed when Count reaches 0, so
	// a slot with Count 0 is free.
	Count int32
	// next is the slot of the entry after this one on its primary-key
	// collision chain (Table.rows holds the chain head), or, on a free
	// slot, the next free slot; noSlot ends either.
	next uint32
	// gen counts the times the slot has been freed: a Row taken before
	// the last free no longer matches it.
	gen uint32
	// Adv records whether the engine has run this tuple's trigger strands
	// (its "advertisement"). The aggregate-selection optimization defers
	// or suppresses trigger strands for tuples that do not improve their
	// group aggregate; Adv prevents double advertisement.
	Adv bool
}

// Row is a handle on a stored row that stays safe to keep while the
// table changes: it names the row's slot and the slot's generation when
// the row was stored there. A key replacement keeps the row (and the
// handle); a delete, eviction or expiry frees the slot, after which the
// handle resolves to nil even when a later insert has refilled the slot
// — with the same tuple, perhaps, but as a row whose trigger strands
// have not run.
type Row struct {
	e    *Entry
	slot uint32
	gen  uint32
}

// Entry returns the row's entry, or nil once the row has left its slot.
func (r Row) Entry() *Entry {
	if r.e == nil || r.e.gen != r.gen {
		return nil
	}
	return r.e
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
	name string
	keys []int // primary-key columns; empty means the whole row
	ttl  float64

	rows map[uint64]uint32 // pk hash -> chain head slot (Entry.next); nil until the first insert
	ents slab[Entry]       // ents.free heads the free-slot list (Entry.next)
	// freed counts the slots freed since the last trim (see trim).
	freed uint32
	n     uint32 // live row count

	idxList []*Index
	bound   *bound // nil for an unbounded table

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

// bound is the FIFO eviction state of a table with a maximum size.
// head indexes the oldest candidate in order; dead counts references to
// rows that have left the table but are not yet compacted out of order.
// compact keeps both the consumed prefix and the dead remainder bounded.
type bound struct {
	max   int
	order []Row
	head  int
	dead  int
}

// trimMin is the fewest free slots a table trims: a small table that
// empties and fills again (a soft beacon, a link that flaps) reuses its
// slots instead of allocating them again.
const trimMin = 8

// Index is a secondary index over a fixed column set, keyed by the hash
// of the projected fields. Buckets may contain hash collisions; Match
// filters them with structural equality, Bucket leaves verification to
// the caller (the join path re-checks every field via unification).
//
// A bucket is a chain of entry slots: the index map holds its first and
// last slot, and links holds, for every slot of the table's slab, the
// slots before and after it in its bucket. The chain is maintained
// exactly like a slice under append and swap-remove, so iteration order
// — which decides the order a join emits its derivations in — does not
// depend on the layout.
type Index struct {
	cols  []int
	t     *Table
	m     map[uint64]bucket // nil until the first row
	links slab[bucketLink]  // entry slot -> its neighbours in its bucket
}

// bucket is one index map value: the ends of the bucket's chain.
type bucket struct{ first, last uint32 }

// bucketLink is a slot's place in its bucket's chain.
type bucketLink struct{ prev, next uint32 }

// Bucket walks the entries stored under one index hash, in bucket order:
//
//	for b := ix.Bucket(h); ; {
//		e := b.Next()
//		if e == nil { break }
//		…
//	}
//
// It is valid until the table next changes.
type Bucket struct {
	ix   *Index // nil for an empty bucket
	next uint32
}

// Next returns the bucket's next entry, or nil after the last.
func (b *Bucket) Next() *Entry {
	s := b.next
	if b.ix == nil || s == noSlot {
		return nil
	}
	b.next = b.ix.links.at(s).next
	return b.ix.t.ents.at(s)
}

// Cols returns the indexed columns. Callers must not mutate the slice.
func (ix *Index) Cols() []int { return ix.cols }

func (ix *Index) mapKey(h uint64) uint64 {
	if ix.t.post != nil {
		return ix.t.post(h)
	}
	return h
}

// Bucket returns the raw collision bucket for hash h. Entries whose
// projection merely collides with the probe are included; callers must
// verify matches (e.g. by unifying every bound column).
func (ix *Index) Bucket(h uint64) Bucket {
	b, ok := ix.m[ix.mapKey(h)]
	if !ok {
		return Bucket{}
	}
	return Bucket{ix: ix, next: b.first}
}

// Match returns the entries whose projection onto the index columns
// equals vals, in bucket order, as a fresh slice the caller owns.
func (ix *Index) Match(vals []val.Value) []*Entry {
	bucket := ix.Bucket(val.HashValues(vals))
	n := 0
	for b := bucket; b.Next() != nil; {
		n++
	}
	if n == 0 {
		return nil
	}
	out := make([]*Entry, 0, n)
	for {
		e := bucket.Next()
		if e == nil {
			return out
		}
		if ix.Matches(e, vals) {
			out = append(out, e)
		}
	}
}

// Matches reports whether e's projection onto the index columns equals
// vals: the collision filter for a caller walking a Bucket itself.
func (ix *Index) Matches(e *Entry, vals []val.Value) bool {
	if len(vals) != len(ix.cols) {
		return false
	}
	fs := e.Fields
	for i, c := range ix.cols {
		if c < 0 || c >= len(fs) || !fs[c].Equal(vals[i]) {
			return false
		}
	}
	return true
}

func (ix *Index) key(e *Entry) uint64 { return ix.mapKey(val.Tuple{Fields: e.Fields}.HashOn(ix.cols)) }

// add appends slot s to its bucket.
func (ix *Index) add(s uint32, e *Entry) {
	for ix.links.n <= s {
		ix.links.grow()
	}
	k := ix.key(e)
	if ix.m == nil {
		ix.m = map[uint64]bucket{}
	}
	b, ok := ix.m[k]
	if !ok {
		*ix.links.at(s) = bucketLink{prev: noSlot, next: noSlot}
		ix.m[k] = bucket{first: s, last: s}
		return
	}
	*ix.links.at(s) = bucketLink{prev: b.last, next: noSlot}
	ix.links.at(b.last).next = s
	b.last = s
	ix.m[k] = b
}

// remove swap-removes slot s from its bucket: the bucket's last slot
// takes its position.
func (ix *Index) remove(s uint32, e *Entry) {
	k := ix.key(e)
	b := ix.m[k]
	l := *ix.links.at(s)
	switch {
	case s == b.first && s == b.last:
		delete(ix.m, k)
		return
	case s == b.last:
		ix.links.at(l.prev).next = noSlot
		b.last = l.prev
		ix.m[k] = b
		return
	}
	last := b.last
	ll := ix.links.at(last)
	moved := l.prev == noSlot // s was first
	if ll.prev == s {         // last followed s: it stays last
		*ll = bucketLink{prev: l.prev, next: noSlot}
	} else {
		ix.links.at(ll.prev).next = noSlot
		b.last = ll.prev
		moved = true
		*ll = l
		ix.links.at(l.next).prev = last
	}
	if l.prev == noSlot {
		b.first = last
	} else {
		ix.links.at(l.prev).next = last
	}
	if moved {
		ix.m[k] = b
	}
}

// New creates a table. keys lists primary-key columns (0-based); empty
// means the full row is the key. ttl < 0 means hard state. maxSize <= 0
// means unbounded. No row storage is allocated until the first insert.
func New(name string, keys []int, ttl float64, maxSize int) *Table {
	t := &Table{
		name:       name,
		keys:       append([]int(nil), keys...),
		ttl:        ttl,
		ents:       slab[Entry]{free: noSlot},
		nextExpiry: math.Inf(1),
	}
	if maxSize > 0 {
		t.bound = &bound{max: maxSize}
	}
	return t
}

// Name returns the relation name.
func (t *Table) Name() string { return t.name }

// TTL returns the soft-state lifetime (<0 = hard state).
func (t *Table) TTL() float64 { return t.ttl }

// Len returns the number of live rows.
func (t *Table) Len() int { return int(t.n) }

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

// pkEqual reports whether two rows' fields share a primary key.
func (t *Table) pkEqual(a, b []val.Value) bool {
	if len(t.keys) == 0 {
		return val.ValuesEqual(a, b)
	}
	for _, c := range t.keys {
		aOOB := c < 0 || c >= len(a)
		bOOB := c < 0 || c >= len(b)
		if aOOB || bOOB {
			if aOOB != bOOB {
				return false
			}
			continue
		}
		if !a[c].Equal(b[c]) {
			return false
		}
	}
	return true
}

// Tuple returns the tuple stored in e: the table's predicate and e's
// fields.
func (t *Table) Tuple(e *Entry) val.Tuple { return val.Tuple{Pred: t.name, Fields: e.Fields} }

// chain returns the first slot of the chain stored under hash h.
func (t *Table) chain(h uint64) uint32 {
	if s, ok := t.rows[h]; ok {
		return s
	}
	return noSlot
}

// find returns the slot and entry whose primary key matches tp under
// hash h, or a nil entry.
func (t *Table) find(h uint64, tp val.Tuple) (uint32, *Entry) {
	return t.findIn(t.chain(h), tp)
}

// findIn is find over a chain the caller already looked up.
func (t *Table) findIn(s uint32, tp val.Tuple) (uint32, *Entry) {
	for s != noSlot {
		e := t.ents.at(s)
		if t.pkEqual(e.Fields, tp.Fields) {
			return s, e
		}
		s = e.next
	}
	return noSlot, nil
}

// alloc returns a slot for a new row: the most recently freed one, else
// a fresh one.
func (t *Table) alloc() (uint32, *Entry) {
	if s := t.ents.free; s != noSlot {
		e := t.ents.at(s)
		t.ents.free = e.next
		return s, e
	}
	s := t.ents.grow()
	return s, t.ents.at(s)
}

// removeRow unlinks the row in slot s, stored under primary-key hash h,
// from the row map and indexes and frees the slot. popped reports that
// the caller already consumed the row from the FIFO order window;
// otherwise its reference there is dead until compaction.
func (t *Table) removeRow(h uint64, s uint32, e *Entry, popped bool) {
	if head := t.rows[h]; head == s {
		if e.next == noSlot {
			delete(t.rows, h)
		} else {
			t.rows[h] = e.next
		}
	} else {
		for p := t.ents.at(head); p.next != noSlot; p = t.ents.at(p.next) {
			if p.next == s {
				p.next = e.next
				break
			}
		}
	}
	t.n--
	t.removeFromIndexes(s, e)
	*e = Entry{next: t.ents.free, gen: e.gen + 1}
	t.ents.free = s
	t.freed++
	if t.bound != nil && !popped {
		t.bound.dead++
		t.bound.compact()
	}
	if f := t.ents.n - t.n; f >= trimMin && (t.n == 0 || f > t.n && t.freed >= t.ents.n/4) {
		t.trim()
	}
}

// trim gives back storage once free slots outnumber live rows: the free
// slots at the end of the slab, with every chunk they leave empty, and,
// when no row is left, the row map and the indexes' storage as well. The
// free list is then threaded lowest slot first, so the rows stored next
// fill the holes low in the slab and leave its end free for a later
// trim. Unless the table empties, a trim waits until a quarter of the
// slab's slots have been freed since the last, which keeps its walks
// linear in the deletes.
//
// A Row still held for a slot past the new end points into memory the
// table no longer uses, where the slot's generation has moved on, so it
// resolves to nil; a slot handed out again keeps counting generations.
func (t *Table) trim() {
	n := t.ents.n
	for n > 0 && t.ents.at(n-1).Count == 0 {
		n--
	}
	t.ents.truncate(n)
	for _, ix := range t.idxList {
		ix.links.truncate(min(ix.links.n, n))
	}
	t.ents.free = noSlot
	for s := n; s > 0; s-- {
		if e := t.ents.at(s - 1); e.Count == 0 {
			e.next = t.ents.free
			t.ents.free = s - 1
		}
	}
	t.freed = 0
	if t.n == 0 {
		t.rows = nil
		if t.bound != nil {
			t.bound.order, t.bound.head, t.bound.dead = nil, 0, 0
		}
		for _, ix := range t.idxList {
			ix.m = nil
		}
	}
}

// compact bounds the eviction list: once the consumed prefix plus dead
// references dominate, rewrite the live suffix into a fresh slice so the
// old backing array can be collected.
func (b *bound) compact() {
	waste := b.head + b.dead
	if waste <= 32 || waste*2 <= len(b.order) {
		return
	}
	live := make([]Row, 0, len(b.order)-b.head-b.dead)
	for _, r := range b.order[b.head:] {
		if r.Entry() != nil {
			live = append(live, r)
		}
	}
	b.order = live
	b.head = 0
	b.dead = 0
}

// InsertResult reports what an Insert did, including any displaced tuples
// the caller must propagate as deletions.
type InsertResult struct {
	Status   Status
	Replaced val.Tuple // valid when Status == StatusReplaced
	// Row is the row that now holds the inserted tuple: the new row, the
	// existing row of a duplicate, or the reused row of a replacement.
	// Callers that must touch the row after the insert (the engine's
	// advertisement flag) keep it instead of looking the tuple up again.
	Row     Row
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

// InsertUntil adds tp, a tuple of the table's predicate, with the given
// logical stamp and deadline (expires < 0: never). A tuple with an existing primary key but different fields
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
	head := t.chain(h)
	if s, e := t.findIn(head, tp); e != nil {
		row := Row{e, s, e.gen}
		if val.ValuesEqual(e.Fields, tp.Fields) {
			res := InsertResult{Status: StatusDuplicate, Row: row}
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
		old := t.Tuple(e)
		t.removeFromIndexes(s, e)
		e.Fields = tp.Fields
		e.Count = 1
		e.Stamp = stamp
		e.Expires = expires
		e.Adv = false
		t.addToIndexes(s, e)
		return InsertResult{Status: StatusReplaced, Row: row, Replaced: old}
	}
	s, e := t.alloc()
	*e = Entry{Fields: tp.Fields, Stamp: stamp, Expires: expires, Count: 1, next: head, gen: e.gen}
	if t.rows == nil {
		t.rows = map[uint64]uint32{}
	}
	t.rows[h] = s
	t.n++
	t.addToIndexes(s, e)
	res := InsertResult{Status: StatusNew, Row: Row{e, s, e.gen}}
	if b := t.bound; b != nil {
		b.order = append(b.order, res.Row)
		res.Evicted = t.evictOverflow(b)
	}
	return res
}

// evictOverflow drops the oldest rows until the table fits its bound.
func (t *Table) evictOverflow(b *bound) []val.Tuple {
	var evicted []val.Tuple
	for int(t.n) > b.max && b.head < len(b.order) {
		r := b.order[b.head]
		b.head++
		e := r.Entry()
		if e == nil {
			b.dead--
			continue
		}
		tp := t.Tuple(e)
		evicted = append(evicted, tp)
		t.removeRow(t.pkHash(tp), r.slot, e, true)
	}
	b.compact()
	return evicted
}

// Delete decrements the derivation count of tp. It returns (gone,
// existed): existed is false if the exact tuple is not present; gone is
// true when the count reached zero and the row was removed.
func (t *Table) Delete(tp val.Tuple) (gone, existed bool) {
	h := t.pkHash(tp)
	s, e := t.find(h, tp)
	if e == nil || !val.ValuesEqual(e.Fields, tp.Fields) {
		return false, false
	}
	e.Count--
	if e.Count > 0 {
		return false, true
	}
	t.removeRow(h, s, e, false)
	return true, true
}

// DeleteByKey removes the row whose primary key matches tp regardless of
// its non-key fields and derivation count, returning the removed tuple.
// Used for base-table updates where the new value displaces the old.
func (t *Table) DeleteByKey(tp val.Tuple) (val.Tuple, bool) {
	h := t.pkHash(tp)
	s, e := t.find(h, tp)
	if e == nil {
		return val.Tuple{}, false
	}
	old := t.Tuple(e)
	t.removeRow(h, s, e, false)
	return old, true
}

// Contains reports whether the exact tuple is stored.
func (t *Table) Contains(tp val.Tuple) bool {
	_, e := t.find(t.pkHash(tp), tp)
	return e != nil && val.ValuesEqual(e.Fields, tp.Fields)
}

// Get returns the entry with tp's primary key, if any.
func (t *Table) Get(tp val.Tuple) (*Entry, bool) {
	_, e := t.find(t.pkHash(tp), tp)
	return e, e != nil
}

// KeyChain returns the head of the collision chain stored under
// primary-key hash h — the hash of the key columns in Keys order, or
// Tuple.Hash for a whole-row key; walk it with Next. It holds the at
// most one row with a given key plus any rows whose keys merely
// collide, so callers must verify matches, as with Index.Bucket.
// Read-only: the chain is the table's own row storage.
func (t *Table) KeyChain(h uint64) *Entry {
	if t.post != nil {
		h = t.post(h)
	}
	if s, ok := t.rows[h]; ok {
		return t.ents.at(s)
	}
	return nil
}

// Next returns the entry after e on its primary-key collision chain, or
// nil at its end.
func (t *Table) Next(e *Entry) *Entry {
	if e.next == noSlot {
		return nil
	}
	return t.ents.at(e.next)
}

// Count returns the derivation count of the exact tuple (0 if absent).
func (t *Table) Count(tp val.Tuple) int {
	_, e := t.find(t.pkHash(tp), tp)
	if e == nil || !val.ValuesEqual(e.Fields, tp.Fields) {
		return 0
	}
	return int(e.Count)
}

// Scan visits every live entry in slot order, which is a function of the
// table's insert and delete history alone; return false from fn to stop
// early.
func (t *Table) Scan(fn func(*Entry) bool) {
	for _, c := range t.ents.chunks {
		for i := range c {
			if e := &c[i]; e.Count > 0 && !fn(e) {
				return
			}
		}
	}
}

// Tuples returns all live tuples in deterministic (Tuple.Compare) order.
func (t *Table) Tuples() []val.Tuple {
	out := make([]val.Tuple, 0, t.n)
	t.Scan(func(e *Entry) bool {
		out = append(out, t.Tuple(e))
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
	ix := &Index{cols: append([]int(nil), cols...), t: t}
	for s := uint32(0); s < t.ents.n; s++ {
		if e := t.ents.at(s); e.Count > 0 {
			ix.add(s, e)
		}
	}
	t.idxList = append(t.idxList, ix)
	return ix
}

// Indexes returns the secondary indexes the table maintains, in creation
// order. Callers must not mutate the slice.
func (t *Table) Indexes() []*Index { return t.idxList }

func (t *Table) addToIndexes(s uint32, e *Entry) {
	for _, ix := range t.idxList {
		ix.add(s, e)
	}
}

func (t *Table) removeFromIndexes(s uint32, e *Entry) {
	for _, ix := range t.idxList {
		ix.remove(s, e)
	}
}

// ExpiryDue reports whether a sweep at virtual time now could find a
// lapsed row: false whenever now is still below the table's
// earliest-expiry bound, and so always for a table with no finite
// deadline.
func (t *Table) ExpiryDue(now float64) bool { return now >= t.nextExpiry }

// Expired returns the tuples whose deadline has lapsed at virtual time
// now, ordered by Stamp (ties by Tuple.Compare) so a sweep's order does
// not depend on storage order. The caller removes the rows it is
// handed: the scan recomputes the earliest-expiry bound over the rows it
// does not report.
func (t *Table) Expired(now float64) []val.Tuple {
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
	if len(due) == 0 {
		return nil
	}
	slices.SortFunc(due, func(a, b *Entry) int {
		if c := cmp.Compare(a.Stamp, b.Stamp); c != 0 {
			return c
		}
		return t.Tuple(a).Compare(t.Tuple(b))
	})
	out := make([]val.Tuple, len(due))
	for i, e := range due {
		out[i] = t.Tuple(e)
	}
	return out
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
