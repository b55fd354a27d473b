package val

import (
	"sync"
	"sync/atomic"
)

// Interner resolves structurally-equal tuples (and the strings and list
// values inside them) to single canonical objects, so that the same
// logical fact materialized many times — decoded from successive wire
// messages, re-instantiated by every derivation round, rebuilt by
// aggregate maintenance — is one allocation shared by every reference.
// After interning, tuple equality on the hot path degenerates to a
// pointer comparison (Tuple.Equal's shared-storage fast path) and the
// decode/head-instantiation scratch buffers never escape.
//
// Entries are keyed by the engine-wide Hash64 fold with short collision
// buckets resolved by structural equality, exactly like the storage
// layer: a hash collision costs one extra comparison, never identity.
//
// Ownership rules (DESIGN.md §3):
//
//   - Canonical objects are immutable. The interner hands out tuples whose
//     Fields (and nested lists) may be shared by tables, queues, and other
//     tuples; nothing may write through them.
//   - The interner never retains caller storage that the caller may reuse
//     or mutate: InternFields and InternValues copy on miss, and the
//     decode path copies wire bytes into fresh strings before they are
//     retained (never aliasing the read buffer).
//   - An interner is a cache, not an owner: dropping or Reset()-ing one
//     is always safe — live references keep their objects alive, and a
//     future intern of an equal tuple merely mints a new canonical copy.
//
// The pool is bounded by a two-generation scheme (the idiom of scanning
// caches): lookups consult the current generation, then the previous
// one — promoting hits — and when the current generation reaches the
// limit it becomes the previous one, dropping the oldest cold entries.
// Soft-state workloads that churn tuples forever therefore cannot grow
// the interner without bound, and an expired tuple's canonical row ages
// out instead of dangling.
//
// A plain Interner (NewInterner) is not safe for concurrent use; the
// engine keeps one per node (each node is owned by one worker at a
// time). NewConcurrentInterner returns a sharded variant whose
// intern/resolve operations are safe from any number of goroutines —
// see its doc for the sharding scheme and the decode-path caveat.
type Interner struct {
	limit int
	cur   internGen
	old   internGen
	// scratch is the shared decode/instantiation arena: callers append
	// candidate values, intern the completed range, and truncate back.
	// Stack discipline (mark/truncate) makes nested lists compose.
	scratch []Value
	// post, when non-nil, maps every computed key hash before bucket
	// lookup. Tests inject truncating maps to force structurally-distinct
	// entries into one bucket; production interners leave it nil.
	post func(uint64) uint64
	// epoch counts generation flips (see Epoch).
	epoch int
	// conc, when non-nil, marks this interner as a concurrent façade:
	// every intern/resolve operation routes — whole — into the shard
	// selected by the operation's primary hash, under that shard's lock.
	// The façade's own generations stay empty; its memo and post hook are
	// never written, so computing routing keys through the façade is a
	// read-only operation.
	conc []concShard
	// concEpoch aggregates generation flips across shards (façade only).
	concEpoch atomic.Int64
	// sharedEpoch points a shard at its façade's concEpoch so flips
	// anywhere surface through the façade's Epoch().
	sharedEpoch *atomic.Int64
	// One-entry memo of the last list hashed by the list pool: tuple-key
	// folds over the same canonical slice reuse the hash instead of
	// re-folding every element (a decoded path vector is hashed once,
	// not once for the list pool and again for the tuple key). The memo
	// holds the slice alive, so the pointer cannot be recycled.
	memoPtr  *Value
	memoLen  int
	memoHash uint64
}

// internGen is one generation of the pool. All maps are created lazily
// on first insert, so an interner on a workload that never pools (small
// flat tuples only) costs one struct allocation and nothing else. The
// first entry per hash lives inline in the value maps (no per-entry
// bucket slice to allocate); genuine 64-bit collisions overflow into
// the *N maps, which hold the second and later entries of a bucket.
type internGen struct {
	tuple1 map[uint64]Tuple
	tupleN map[uint64][]Tuple
	list1  map[uint64][]Value
	listN  map[uint64][][]Value
	strs   map[string]string
	n      int // total entries across all maps
}

// findTuple returns the generation's canonical tuple for (pred, fields)
// under hash h. Overflow entries exist only when the inline slot is
// taken, so the common path is one map read.
func (g *internGen) findTuple(h uint64, pred string, fields []Value) (Tuple, bool) {
	c, ok := g.tuple1[h]
	if !ok {
		return Tuple{}, false
	}
	if c.Pred == pred && ValuesEqual(c.Fields, fields) {
		return c, true
	}
	for _, c := range g.tupleN[h] {
		if c.Pred == pred && ValuesEqual(c.Fields, fields) {
			return c, true
		}
	}
	return Tuple{}, false
}

func (g *internGen) putTuple(h uint64, t Tuple) {
	if g.tuple1 == nil {
		g.tuple1 = map[uint64]Tuple{}
	}
	if _, ok := g.tuple1[h]; !ok {
		g.tuple1[h] = t
	} else {
		// Structurally-distinct hash collision: overflow bucket.
		if g.tupleN == nil {
			g.tupleN = map[uint64][]Tuple{}
		}
		g.tupleN[h] = append(g.tupleN[h], t)
	}
	g.n++
}

func (g *internGen) findList(h uint64, vs []Value) ([]Value, bool) {
	c, ok := g.list1[h]
	if !ok {
		return nil, false
	}
	if ValuesEqual(c, vs) {
		return c, true
	}
	for _, c := range g.listN[h] {
		if ValuesEqual(c, vs) {
			return c, true
		}
	}
	return nil, false
}

func (g *internGen) putList(h uint64, vs []Value) {
	if g.list1 == nil {
		g.list1 = map[uint64][]Value{}
	}
	if _, ok := g.list1[h]; !ok {
		g.list1[h] = vs
	} else {
		if g.listN == nil {
			g.listN = map[uint64][][]Value{}
		}
		g.listN[h] = append(g.listN[h], vs)
	}
	g.n++
}

// DefaultInternLimit bounds one generation of the default interner. Two
// generations of tuples at typical path-vector sizes stay in the tens of
// megabytes; cold entries beyond that age out.
const DefaultInternLimit = 1 << 17

// NewInterner returns an empty interner with the default size bound.
func NewInterner() *Interner { return newInterner(DefaultInternLimit, nil) }

// concShard is one lock-protected slice of a concurrent interner: a
// plain Interner guarded by a mutex. Operations route by the top bits
// of their primary hash, so independent keys contend only 1/nshards of
// the time and the pointer-equality invariant holds globally — a tuple
// key always lands in the same shard, so structurally-equal tuples
// resolve to one canonical object no matter which worker interns them.
type concShard struct {
	mu sync.Mutex
	in *Interner
	// Pad each shard to a cache line (mutex 8B + pointer 8B + 48B) so
	// uncontended locks on neighboring shards do not false-share.
	_ [48]byte
}

// concShardBits sizes the shard array: 1<<concShardBits shards, routed
// by the top concShardBits bits of the primary hash.
const concShardBits = 5

// NewConcurrentInterner returns an interner safe for concurrent
// intern/resolve calls from any number of goroutines. It shards the
// pool by hash: each operation computes its primary hash lock-free,
// then executes entirely inside one mutex-guarded shard, so two workers
// interning unrelated tuples almost never contend while two workers
// interning the same tuple serialize and receive the same canonical
// object (pointer equality survives concurrency).
//
// Lists referenced by tuples may be pooled in the tuple's shard rather
// than the list hash's shard, so an identical list can hold canonical
// copies in more than one shard; that duplicates a little memory but
// never identity — tuple canonicalization is what equality fast paths
// rely on, and tuples are globally unique.
//
// Caveat: the wire-decode entry points (DecodeTupleIn and friends) use
// the receiver's scratch arena, which the façade owns unsynchronized.
// Decoding through a concurrent interner is safe only when the decode
// calls themselves are externally serialized (in-tree they are: netrun
// decodes under per-node locks, and the in-process parallel executor
// passes tuples by reference without re-encoding). Intern/Resolve/
// InternValues/InternString need no external synchronization.
func NewConcurrentInterner() *Interner {
	const nshards = 1 << concShardBits
	f := &Interner{conc: make([]concShard, nshards)}
	for i := range f.conc {
		s := newInterner(DefaultInternLimit/nshards, nil)
		s.sharedEpoch = &f.concEpoch
		f.conc[i].in = s
	}
	return f
}

// Concurrent reports whether in is a sharded façade safe for concurrent
// intern/resolve use.
func (in *Interner) Concurrent() bool { return in.conc != nil }

// shard picks the shard owning primary hash h.
func (in *Interner) shard(h uint64) *concShard {
	return &in.conc[h>>(64-concShardBits)]
}

// newInterner exists so tests can shrink the bound and truncate the key
// hash to force collision buckets.
func newInterner(limit int, post func(uint64) uint64) *Interner {
	if limit < 1 {
		limit = 1
	}
	// Both generations start zero: nil maps read as empty and allocate
	// on first insert.
	return &Interner{limit: limit, post: post}
}

// InternWorthy reports whether pooling a tuple with these fields pays.
// Interning trades a hash-and-probe per touch for shared storage, so it
// wins exactly where tuples are expensive to materialize and compare:
// variable-size payloads (path vectors and other lists) and wide rows.
// A flat tuple of a few scalar words costs less to copy than to probe —
// the engine leaves those on the plain allocation path. Explicit
// Intern/InternFields calls are not gated: callers who know their
// population (tests, tools) may pool anything.
func InternWorthy(fields []Value) bool {
	if len(fields) >= 6 {
		return true
	}
	for i := range fields {
		if fields[i].Kind() == KindList {
			return true
		}
	}
	return false
}

// HashPredicate returns the hash state after folding a predicate name —
// the fixed prefix of every tuple key for that predicate. Rule compilers
// and tables cache it so per-tuple hashing folds only the fields.
func HashPredicate(pred string) Hash64 { return NewHash().AddString(pred) }

// tupleKey finishes a tuple key from the predicate's cached hash state,
// consistent with Tuple.Hash. List fields the list pool just hashed
// (the memo) fold their cached sub-hash instead of re-folding every
// element — AddValue composes lists as length + HashValues precisely so
// this splice is exact.
func (in *Interner) tupleKey(ph Hash64, fields []Value) uint64 {
	for i := range fields {
		f := fields[i]
		if f.Kind() == KindList {
			if l := f.list(); len(l) > 0 && &l[0] == in.memoPtr && len(l) == in.memoLen {
				ph = ph.addByte(byte(KindList)).addUint64(uint64(len(l))).addUint64(in.memoHash)
				continue
			}
		}
		ph = ph.AddValue(f)
	}
	k := ph.Sum()
	if in.post != nil {
		k = in.post(k)
	}
	return k
}

// hashList hashes a list payload (consistent with HashValues), reusing
// the memoized hash when vs is the memoized slice.
func (in *Interner) hashList(vs []Value) uint64 {
	if len(vs) > 0 && &vs[0] == in.memoPtr && len(vs) == in.memoLen {
		return in.memoHash
	}
	return HashValues(vs)
}

// memoize records the canonical slice the list pool just hashed.
func (in *Interner) memoize(vs []Value, raw uint64) {
	if len(vs) == 0 {
		return
	}
	in.memoPtr, in.memoLen, in.memoHash = &vs[0], len(vs), raw
}

// listKey applies the test hook to a raw list hash.
func (in *Interner) listKey(raw uint64) uint64 {
	if in.post != nil {
		return in.post(raw)
	}
	return raw
}

// Len returns the number of retained entries (tuples, list values and
// strings) across both generations. Promoted entries appear in both, so
// this is exact only while the interner has never flipped a generation.
func (in *Interner) Len() int {
	if in.conc != nil {
		n := 0
		for i := range in.conc {
			s := &in.conc[i]
			s.mu.Lock()
			n += s.in.Len()
			s.mu.Unlock()
		}
		return n
	}
	return in.cur.n + in.old.n
}

// Reset drops every retained entry and the scratch arena. Safe at any
// time: canonical objects referenced elsewhere stay alive, and future
// interns mint fresh canonicals.
func (in *Interner) Reset() {
	if in.conc != nil {
		for i := range in.conc {
			s := &in.conc[i]
			s.mu.Lock()
			s.in.Reset()
			s.mu.Unlock()
		}
	}
	in.cur = internGen{}
	in.old = internGen{}
	in.scratch = in.scratch[:0]
	in.memoPtr, in.memoLen, in.memoHash = nil, 0, 0
}

// flipIfFull starts a new generation once the current one is at the
// bound, discarding the previous generation's cold entries.
func (in *Interner) flipIfFull() {
	if in.cur.n >= in.limit {
		in.old = in.cur
		in.cur = internGen{}
		in.epoch++
		if in.sharedEpoch != nil {
			in.sharedEpoch.Add(1)
		}
	}
}

// Epoch counts generation flips — on a concurrent façade, across every
// shard. An entry interned two or more epochs ago may have been
// evicted; callers caching "already pooled" state (table rows)
// re-intern when the epoch has advanced that far. (A concurrent façade
// flips per shard, so one façade epoch evicts only 1/nshards of the
// pool; the "two epochs ⇒ maybe evicted" contract still holds — it is
// conservative in the sharded case.)
func (in *Interner) Epoch() int {
	if in.conc != nil {
		return int(in.concEpoch.Load())
	}
	return in.epoch
}

// findTuple looks h up in both generations, promoting old-generation
// hits so they survive the next flip.
func (in *Interner) findTuple(h uint64, pred string, fields []Value) (Tuple, bool) {
	if c, ok := in.cur.findTuple(h, pred, fields); ok {
		return c, true
	}
	if in.old.n != 0 {
		if c, ok := in.old.findTuple(h, pred, fields); ok {
			in.putTuple(h, c)
			return c, true
		}
	}
	return Tuple{}, false
}

func (in *Interner) putTuple(h uint64, t Tuple) {
	in.flipIfFull()
	in.cur.putTuple(h, t)
}

// Intern returns the canonical tuple structurally equal to t. When t is
// new, t itself becomes canonical: the caller transfers ownership of its
// storage, which must be immutable from here on (tuples always are; do
// not pass a tuple built over a scratch buffer — use InternFields).
// Newly-adopted tuples also have their list fields resolved into the
// list pool, so future decodes and instantiations of the same lists hit.
func (in *Interner) Intern(t Tuple) Tuple {
	return in.InternH(HashPredicate(t.Pred), t)
}

// InternH is Intern taking the predicate's cached hash state (see
// HashPredicate), skipping the per-call predicate fold.
func (in *Interner) InternH(ph Hash64, t Tuple) Tuple {
	h := in.tupleKey(ph, t.Fields)
	if in.conc != nil {
		s := in.shard(h)
		s.mu.Lock()
		c := s.in.internKeyed(h, t)
		s.mu.Unlock()
		return c
	}
	return in.internKeyed(h, t)
}

// internKeyed is the InternH core under a precomputed tuple key; on a
// concurrent interner it runs inside the owning shard's lock.
func (in *Interner) internKeyed(h uint64, t Tuple) Tuple {
	if c, ok := in.findTuple(h, t.Pred, t.Fields); ok {
		return c
	}
	// Resolve list fields into the list pool. Never write through
	// t.Fields: its storage may already be shared (out-deltas, decode
	// results), and canonical objects are immutable — if a list resolves
	// to a different canonical array, the adopted tuple gets a fresh
	// fields slice instead.
	var fs []Value
	for i := range t.Fields {
		if t.Fields[i].Kind() != KindList {
			continue
		}
		l := t.Fields[i].list()
		if len(l) == 0 {
			continue
		}
		cl := in.adoptValues(l)
		if &cl[0] == &l[0] {
			continue // pool adopted t's own storage; nothing to rewrite
		}
		if fs == nil {
			fs = append([]Value(nil), t.Fields...)
		}
		fs[i] = listOf(cl)
	}
	if fs != nil {
		t = Tuple{Pred: t.Pred, Fields: fs}
	}
	in.putTuple(h, t)
	return t
}

// InternFields returns the canonical tuple for (pred, fields). fields
// may be scratch storage: it is copied on miss and never retained, so
// hot paths can instantiate candidate rows in a reusable buffer and only
// pay an allocation for tuples never seen before.
func (in *Interner) InternFields(pred string, fields []Value) Tuple {
	h := in.tupleKey(HashPredicate(pred), fields)
	if in.conc != nil {
		s := in.shard(h)
		s.mu.Lock()
		c := s.in.internFieldsKeyed(h, pred, fields)
		s.mu.Unlock()
		return c
	}
	return in.internFieldsKeyed(h, pred, fields)
}

func (in *Interner) internFieldsKeyed(h uint64, pred string, fields []Value) Tuple {
	if c, ok := in.findTuple(h, pred, fields); ok {
		return c
	}
	fs := make([]Value, len(fields))
	copy(fs, fields)
	t := Tuple{Pred: pred, Fields: fs}
	in.putTuple(h, t)
	return t
}

// Resolve returns the canonical tuple for (pred, fields) when one is
// interned, copying fields into a fresh tuple otherwise — without
// retaining the miss. It is the read-only counterpart of InternFields
// for producers whose output is often never seen twice (head
// instantiation explores many candidate paths once; wire decode carries
// many one-shot deltas): re-derivations and re-arrivals of a tuple some
// table already owns collapse onto the canonical copy, while one-shot
// tuples cost a plain copy instead of polluting the pool with a map
// insert each. Only storage (Intern at table-insert time) populates the
// pool.
func (in *Interner) Resolve(pred string, fields []Value) Tuple {
	return in.ResolveH(HashPredicate(pred), pred, fields)
}

// ResolveH is Resolve taking the predicate's cached hash state (see
// HashPredicate), skipping the per-call predicate fold — the form the
// head-instantiation hot path uses (rule compilation caches the hash).
func (in *Interner) ResolveH(ph Hash64, pred string, fields []Value) Tuple {
	h := in.tupleKey(ph, fields)
	if in.conc != nil {
		s := in.shard(h)
		s.mu.Lock()
		c, ok := s.in.findTuple(h, pred, fields)
		s.mu.Unlock()
		if ok {
			return c
		}
		fs := make([]Value, len(fields))
		copy(fs, fields)
		return Tuple{Pred: pred, Fields: fs}
	}
	if c, ok := in.findTuple(h, pred, fields); ok {
		return c
	}
	fs := make([]Value, len(fields))
	copy(fs, fields)
	return Tuple{Pred: pred, Fields: fs}
}

// ResolveTuple returns the canonical tuple equal to t when one is
// interned, t itself otherwise (no copy, no retention).
func (in *Interner) ResolveTuple(t Tuple) Tuple {
	h := in.tupleKey(HashPredicate(t.Pred), t.Fields)
	if in.conc != nil {
		s := in.shard(h)
		s.mu.Lock()
		c, ok := s.in.findTuple(h, t.Pred, t.Fields)
		s.mu.Unlock()
		if ok {
			return c
		}
		return t
	}
	if c, ok := in.findTuple(h, t.Pred, t.Fields); ok {
		return c
	}
	return t
}

// InternValues returns the canonical value slice structurally equal to
// vs, copying on miss (vs may be scratch). Callers must treat the result
// as immutable. Used for list payloads and retained aggregate group keys.
func (in *Interner) InternValues(vs []Value) []Value {
	if in.conc != nil {
		raw := HashValues(vs)
		s := in.shard(raw)
		s.mu.Lock()
		c := s.in.internValuesKeyed(raw, vs)
		s.mu.Unlock()
		return c
	}
	return in.internValuesKeyed(in.hashList(vs), vs)
}

func (in *Interner) internValuesKeyed(raw uint64, vs []Value) []Value {
	h := in.listKey(raw)
	if c, ok := in.findListH(h, vs); ok {
		in.memoize(c, raw)
		return c
	}
	cp := make([]Value, len(vs))
	copy(cp, vs)
	in.putList(h, cp)
	in.memoize(cp, raw)
	return cp
}

// findListH looks a list key up in both generations, promoting
// old-generation hits.
func (in *Interner) findListH(h uint64, vs []Value) ([]Value, bool) {
	if c, ok := in.cur.findList(h, vs); ok {
		return c, true
	}
	if in.old.n != 0 {
		if c, ok := in.old.findList(h, vs); ok {
			in.putList(h, c)
			return c, true
		}
	}
	return nil, false
}

func (in *Interner) putList(h uint64, vs []Value) {
	in.flipIfFull()
	in.cur.putList(h, vs)
}

// adoptValues is InternValues taking ownership of vs on miss (no copy):
// for callers whose slice is already immutable, like a stored tuple's
// list field.
func (in *Interner) adoptValues(vs []Value) []Value {
	if in.conc != nil {
		// Reached only via a direct façade call; internKeyed's nested
		// adoption already runs on a shard. Adopt into the list hash's
		// own shard.
		raw := HashValues(vs)
		s := in.shard(raw)
		s.mu.Lock()
		c := s.in.adoptKeyed(raw, vs)
		s.mu.Unlock()
		return c
	}
	return in.adoptKeyed(in.hashList(vs), vs)
}

func (in *Interner) adoptKeyed(raw uint64, vs []Value) []Value {
	h := in.listKey(raw)
	if c, ok := in.findListH(h, vs); ok {
		in.memoize(c, raw)
		return c
	}
	in.putList(h, vs)
	in.memoize(vs, raw)
	return vs
}

// resolveList returns the canonical list value for the element range vs
// when one is interned, copying vs into a fresh list otherwise — the
// read-only sibling of adoptValues for the decode path (vs is scratch).
func (in *Interner) resolveList(vs []Value) Value {
	raw := HashValues(vs)
	if in.conc != nil {
		s := in.shard(raw)
		s.mu.Lock()
		c, ok := s.in.findListH(in.listKey(raw), vs)
		s.mu.Unlock()
		if ok {
			return listOf(c)
		}
		cp := make([]Value, len(vs))
		copy(cp, vs)
		return listOf(cp)
	}
	h := in.listKey(raw)
	if c, ok := in.findListH(h, vs); ok {
		in.memoize(c, raw)
		return listOf(c)
	}
	cp := make([]Value, len(vs))
	copy(cp, vs)
	in.memoize(cp, raw)
	return listOf(cp)
}

// InternString returns the canonical copy of s.
func (in *Interner) InternString(s string) string {
	if in.conc != nil {
		sh := in.shard(NewHash().AddString(s).Sum())
		sh.mu.Lock()
		c := sh.in.InternString(s)
		sh.mu.Unlock()
		return c
	}
	if c, ok := in.cur.strs[s]; ok {
		return c
	}
	if in.old.n != 0 {
		if c, ok := in.old.strs[s]; ok {
			in.putStr(c)
			return c
		}
	}
	in.putStr(s)
	return s
}

// internBytes returns the canonical string equal to b without allocating
// on a hit (the map lookup converts in place); on miss the bytes are
// copied into a fresh string, so the result never aliases b — wire
// decoders may pass views of a reused read buffer.
func (in *Interner) internBytes(b []byte) string {
	if in.conc != nil {
		// AddBytes folds exactly like AddString on the equal string, so
		// byte views and retained strings route to the same shard.
		sh := in.shard(NewHash().AddBytes(b).Sum())
		sh.mu.Lock()
		c := sh.in.internBytes(b)
		sh.mu.Unlock()
		return c
	}
	if c, ok := in.cur.strs[string(b)]; ok {
		return c
	}
	if in.old.n != 0 {
		if c, ok := in.old.strs[string(b)]; ok {
			in.putStr(c)
			return c
		}
	}
	s := string(b) // copy: the buffer may be scribbled over after return
	in.putStr(s)
	return s
}

func (in *Interner) putStr(s string) {
	in.flipIfFull()
	if in.cur.strs == nil {
		in.cur.strs = map[string]string{}
	}
	in.cur.strs[s] = s
	in.cur.n++
}
