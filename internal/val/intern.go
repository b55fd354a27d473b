package val

// Interner is a node's string table plus an explicit tuple pool.
//
// The string table is what wire decode uses (DecodeTupleIn and friends):
// predicate names, addresses and string payloads arriving in datagram
// after datagram resolve to one retained copy each, so a decoded tuple
// with known strings costs a single allocation — its value array.
//
// The tuple pool (Intern) unifies structurally-equal tuples for callers
// that want one canonical object per fact — tools and tests. The engine
// keeps no tuple pool: a derived or decoded tuple is allocated once by
// whoever keeps it and found again through the table that stores it
// (DESIGN.md §3), because on every measured workload a pool probe per
// head and per decoded tuple never hit (DESIGN.md §13).
//
// Entries are keyed by the engine-wide Hash64 fold with short collision
// buckets resolved by structural equality, exactly like the storage
// layer: a hash collision costs one extra comparison, never identity.
//
// Canonical objects are immutable, and an interner is a cache, not an
// owner: live references keep their objects alive, and a later intern
// of an equal value merely mints a new canonical copy. The decode path
// copies wire bytes into fresh strings before they are retained, so no
// entry ever aliases a read buffer.
//
// The table is bounded by a two-generation scheme (the idiom of scanning
// caches): lookups consult the current generation, then the previous
// one — promoting hits — and when the current generation reaches the
// limit it becomes the previous one, dropping the oldest cold entries. A
// workload that churns distinct strings forever therefore cannot grow a
// node's table without bound.
//
// An Interner is not safe for concurrent use; the engine keeps one per
// node, and each node is owned by one goroutine at a time.
type Interner struct {
	limit int
	cur   internGen
	old   internGen
	// post, when non-nil, maps every computed tuple hash before bucket
	// lookup. Tests inject truncating maps to force structurally-distinct
	// entries into one bucket; production interners leave it nil.
	post func(uint64) uint64
}

// internGen is one generation of the table. Maps are created lazily on
// first insert. The first tuple per hash lives inline in tuple1 (no
// per-entry bucket slice); genuine 64-bit collisions overflow into
// tupleN, which holds the second and later entries of a bucket.
type internGen struct {
	tuple1 map[uint64]Tuple
	tupleN map[uint64][]Tuple
	strs   map[string]string
	n      int // total entries across all maps
}

func (g *internGen) findTuple(h uint64, t Tuple) (Tuple, bool) {
	c, ok := g.tuple1[h]
	if !ok {
		return Tuple{}, false
	}
	if c.Equal(t) {
		return c, true
	}
	for _, c := range g.tupleN[h] {
		if c.Equal(t) {
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

// DefaultInternLimit bounds one generation of the default interner.
const DefaultInternLimit = 1 << 17

// NewInterner returns an empty interner with the default size bound.
func NewInterner() *Interner { return newInterner(DefaultInternLimit, nil) }

// newInterner exists so tests can shrink the bound and truncate the key
// hash to force collision buckets.
func newInterner(limit int, post func(uint64) uint64) *Interner {
	if limit < 1 {
		limit = 1
	}
	return &Interner{limit: limit, post: post}
}

// Len returns the number of retained entries (tuples and strings) across
// both generations. Promoted entries appear in both, so this is exact
// only while the interner has never flipped a generation.
func (in *Interner) Len() int { return in.cur.n + in.old.n }

// flipIfFull starts a new generation once the current one is at the
// bound, discarding the previous generation's cold entries.
func (in *Interner) flipIfFull() {
	if in.cur.n >= in.limit {
		in.old = in.cur
		in.cur = internGen{}
	}
}

// Intern returns the canonical tuple structurally equal to t. When t is
// new, t itself becomes canonical: the caller transfers ownership of its
// storage, which must be immutable from here on (tuples always are; do
// not pass a tuple built over a scratch buffer).
func (in *Interner) Intern(t Tuple) Tuple {
	h := t.Hash()
	if in.post != nil {
		h = in.post(h)
	}
	if c, ok := in.cur.findTuple(h, t); ok {
		return c
	}
	if in.old.n != 0 {
		if c, ok := in.old.findTuple(h, t); ok {
			t = c // promote: the hit survives the next flip
		}
	}
	in.flipIfFull()
	in.cur.putTuple(h, t)
	return t
}

// InternBytes returns the canonical string equal to b without allocating
// on a hit (the map lookup converts in place); on miss the bytes are
// copied into a fresh string, so the result never aliases b — wire
// decoders may pass views of a reused read buffer.
func (in *Interner) InternBytes(b []byte) string {
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
