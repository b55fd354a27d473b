package val

// Streaming 64-bit FNV-1a folding, shared by every hash in the engine.
// The storage layer keys its row and index maps by these hashes (with
// structural equality resolving collisions), so the same byte sequence
// must be produced wherever the same logical key is hashed: a probe
// hashing bound values must land in the bucket of the entries whose
// projected fields were hashed at insert time. Strings and lists fold
// their length before their payload so that adjacent variable-length
// values cannot alias ("ab","c" vs "a","bc").

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Hash64 is an in-progress 64-bit hash. Start with NewHash, fold values
// in key order, and read the result with Sum.
type Hash64 uint64

// NewHash returns the initial hash state.
func NewHash() Hash64 { return fnvOffset64 }

// Sum returns the accumulated hash.
func (h Hash64) Sum() uint64 { return uint64(h) }

func (h Hash64) addByte(b byte) Hash64 {
	return (h ^ Hash64(b)) * fnvPrime64
}

func (h Hash64) addUint64(x uint64) Hash64 {
	// One word-wide fold instead of eight byte folds: the engine only
	// needs determinism and diffusion (collisions are resolved by Equal),
	// so a single multiply with a xor-shift is plenty — and the multiply
	// latency chain is what bounds every hash on the hot path.
	h = (h ^ Hash64(x)) * fnvPrime64
	return h ^ (h >> 29)
}

// AddString folds a length-prefixed string, eight bytes per fold. The
// byte-or chain below is the load-combining idiom the compiler lowers
// to a single unaligned load, so short strings (predicate names,
// addresses) cost one or two word folds instead of a serial multiply
// per byte. The length prefix keeps adjacent variable-length values
// from aliasing, including the zero-padded tail word.
func (h Hash64) AddString(s string) Hash64 {
	h = h.addUint64(uint64(len(s)))
	i := 0
	for ; i+8 <= len(s); i += 8 {
		x := uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
			uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
		h = h.addUint64(x)
	}
	if i < len(s) {
		var x uint64
		for j := 0; i < len(s); i, j = i+1, j+8 {
			x |= uint64(s[i]) << j
		}
		h = h.addUint64(x)
	}
	return h
}

// AddValue folds one value: kind tag, then the payload in its native
// binary form (no decimal formatting).
func (h Hash64) AddValue(v Value) Hash64 {
	k := v.Kind()
	h = h.addByte(byte(k))
	switch k {
	case KindAddr, KindString:
		h = h.AddString(v.str())
	case KindInt, KindBool, KindFloat:
		// The payload word: the int, 0/1, or the canonical float bits.
		h = h.addUint64(v.word())
	case KindList:
		// Fold the length, then the list's own whole hash, so a list
		// field hashes the same wherever its elements are stored.
		l := v.list()
		h = h.addUint64(uint64(len(l)))
		h = h.addUint64(HashValues(l))
	}
	return h
}

// oobTag marks an out-of-range column in a projection hash; it cannot
// collide with a kind tag.
const oobTag = 0xFF

// AddOOB folds the marker for a projected column that is out of range.
func (h Hash64) AddOOB() Hash64 { return h.addByte(oobTag) }

// Hash returns a 64-bit hash of v, consistent with Equal.
func (v Value) Hash() uint64 { return NewHash().AddValue(v).Sum() }

// HashValues hashes a sequence of values in order. It equals
// Tuple.HashOn for the tuple's projection onto the same columns.
func HashValues(vs []Value) uint64 {
	h := NewHash()
	for i := range vs {
		h = h.AddValue(vs[i])
	}
	return h.Sum()
}

// ValuesEqual reports elementwise equality of two value sequences — the
// collision-resolution counterpart of HashValues.
func ValuesEqual(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	if len(a) > 0 && &a[0] == &b[0] {
		return true // shared storage
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
