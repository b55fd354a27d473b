package val

import (
	"fmt"
	"strings"
)

// Tuple is a fact: a predicate name plus a row of field values. Tuples are
// immutable after construction; engine bookkeeping (timestamps, derivation
// counts) lives in the storage layer, not here.
type Tuple struct {
	Pred   string
	Fields []Value
}

// NewTuple builds a tuple for predicate pred with the given fields.
func NewTuple(pred string, fields ...Value) Tuple {
	return Tuple{Pred: pred, Fields: fields}
}

// Arity returns the number of fields.
func (t Tuple) Arity() int { return len(t.Fields) }

// Loc returns the location specifier (first field) as an address. It
// panics if the tuple is empty or the first field is not an address;
// planner checks guarantee this never happens for well-formed programs.
func (t Tuple) Loc() string { return t.Fields[0].Addr() }

// Equal reports whether two tuples have the same predicate and fields.
// A stored tuple compared with itself (the common case on the engine's
// store path) short-circuits to a pointer check.
func (t Tuple) Equal(o Tuple) bool {
	if t.Pred != o.Pred || len(t.Fields) != len(o.Fields) {
		return false
	}
	if len(t.Fields) > 0 && &t.Fields[0] == &o.Fields[0] {
		return true // same storage (values are immutable)
	}
	for i := range t.Fields {
		if !t.Fields[i].Equal(o.Fields[i]) {
			return false
		}
	}
	return true
}

// Hash returns a 64-bit hash of the whole tuple, consistent with Equal.
// It allocates nothing; the storage layer uses it (plus Equal on
// collision) in place of string keys.
func (t Tuple) Hash() uint64 {
	h := NewHash().AddString(t.Pred)
	for i := range t.Fields {
		h = h.AddValue(t.Fields[i])
	}
	return h.Sum()
}

// HashOn hashes the projection of t onto cols, consistent with
// HashValues over the same field sequence: a lookup hashing its bound
// values lands in the bucket of the tuples whose projection matches.
// Out-of-range columns fold a distinct marker.
func (t Tuple) HashOn(cols []int) uint64 {
	h := NewHash()
	for _, c := range cols {
		if c < 0 || c >= len(t.Fields) {
			h = h.AddOOB()
			continue
		}
		h = h.AddValue(t.Fields[c])
	}
	return h.Sum()
}

// Compare orders tuples: by predicate, then arity, then fieldwise
// Value.Compare. It is a total order consistent with Equal and is the
// deterministic ordering used by Table.Tuples (replacing sorted string
// keys).
func (t Tuple) Compare(o Tuple) int {
	if c := strings.Compare(t.Pred, o.Pred); c != 0 {
		return c
	}
	if c := len(t.Fields) - len(o.Fields); c != 0 {
		if c < 0 {
			return -1
		}
		return 1
	}
	for i := range t.Fields {
		if c := t.Fields[i].Compare(o.Fields[i]); c != 0 {
			return c
		}
	}
	return 0
}

// Key returns a canonical string key for the tuple, usable as a map key.
// Two tuples have the same Key iff they are Equal. It formats every
// field, so it is for display, tracing, and deterministic test output
// only — the storage layer keys by Hash instead.
func (t Tuple) Key() string {
	var b strings.Builder
	b.WriteString(t.Pred)
	b.WriteByte('(')
	for i := range t.Fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(t.Fields[i].String())
	}
	b.WriteByte(')')
	return b.String()
}

// KeyOn returns a canonical string key over the given field positions,
// used for primary-key and join-index lookups.
func (t Tuple) KeyOn(cols []int) string {
	var b strings.Builder
	for i, c := range cols {
		if i > 0 {
			b.WriteByte(',')
		}
		if c < 0 || c >= len(t.Fields) {
			b.WriteString("<oob>")
			continue
		}
		b.WriteString(t.Fields[c].String())
	}
	return b.String()
}

// Project returns a new tuple for predicate pred holding the fields of t
// at positions cols, in order.
func (t Tuple) Project(pred string, cols []int) Tuple {
	fs := make([]Value, len(cols))
	for i, c := range cols {
		fs[i] = t.Fields[c]
	}
	return Tuple{Pred: pred, Fields: fs}
}

// String renders the tuple in NDlog fact syntax.
func (t Tuple) String() string { return t.Key() }

// Clone returns a tuple with a copied field slice (values themselves are
// immutable and shared).
func (t Tuple) Clone() Tuple {
	fs := make([]Value, len(t.Fields))
	copy(fs, t.Fields)
	return Tuple{Pred: t.Pred, Fields: fs}
}

// GoString implements fmt.GoStringer for readable test failures.
func (t Tuple) GoString() string { return fmt.Sprintf("val.Tuple%s", t.Key()) }
