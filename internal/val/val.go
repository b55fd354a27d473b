// Package val implements the typed value and tuple substrate used by the
// NDlog engine. Values are a small tagged union covering the types that
// appear in declarative networking programs: network addresses, integers,
// floats, strings, booleans, and lists (used for path vectors).
//
// Values are immutable once constructed. Lists share backing storage, so
// callers must not mutate the slice passed to NewList after construction.
//
// A Value is three words (DESIGN.md §12): a kind tag, one 64-bit payload
// word and one pointer. Strings and lists keep only their data pointer
// and length; the accessors rebuild the Go string or slice on demand.
// This file is the only one in the repository that imports unsafe
// (cmd/ndvet's unsafeimport pass enforces it); the rest of the package
// reads values through the unexported accessors below, never the fields.
//
// Two more invariants anchor the rest of the system: wire decoding
// copies — a decoded value or tuple never aliases the input buffer, so
// transports may reuse receive buffers — and shared storage (a stored
// tuple's fields reused by the tuples derived from it, strings resolved
// through an Interner) makes pointer equality a sound fast path for
// Equal but never a substitute: hash-equal values are re-checked
// structurally.
package val

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"unsafe"
)

// Kind discriminates the dynamic type of a Value.
type Kind uint8

// The kinds of values NDlog programs manipulate.
const (
	KindNil Kind = iota
	KindAddr
	KindInt
	KindFloat
	KindString
	KindBool
	KindList
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNil:
		return "nil"
	case KindAddr:
		return "addr"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindList:
		return "list"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a single NDlog field value. The zero Value is Nil.
//
// Soundness of the pointer word: p is only ever taken from a live Go
// string or []Value (unsafe.StringData / unsafe.SliceData in the two
// constructors below) and n is that object's length, so the garbage
// collector sees an ordinary pointer into the backing array and
// unsafe.String / unsafe.Slice rebuild exactly the header the
// constructor was given (minus spare capacity). p is nil whenever the
// length is zero and for every scalar kind, which makes (kind, n, p)
// equality a sufficient test for Equal.
type Value struct {
	p    unsafe.Pointer // string bytes, or first element of a list
	n    uint64         // int, bool (0/1), float bits, or len of string/list
	kind Kind
}

// Nil is the absent value.
var Nil = Value{}

// NewAddr returns an address value. Addresses identify network locations
// and are the type carried by location-specifier attributes.
func NewAddr(a string) Value { return stringOf(KindAddr, a) }

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// canonNaN is the one NaN bit pattern a float Value can hold.
const canonNaN = 0x7FF8000000000001

// NewFloat returns a float value. Floats are canonicalised so that Equal
// values have equal payload words — and therefore equal hashes and wire
// bytes: -0 becomes +0 and every NaN becomes one quiet NaN.
func NewFloat(v float64) Value {
	switch {
	case v == 0:
		return Value{kind: KindFloat}
	case v != v:
		return Value{kind: KindFloat, n: canonNaN}
	}
	return Value{kind: KindFloat, n: math.Float64bits(v)}
}

// NewString returns a string value.
func NewString(v string) Value { return stringOf(KindString, v) }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	if v {
		return Value{kind: KindBool, n: 1}
	}
	return Value{kind: KindBool}
}

// NewList returns a list value wrapping vs. The caller must not mutate vs
// afterwards.
func NewList(vs ...Value) Value { return listOf(vs) }

func stringOf(k Kind, s string) Value {
	if len(s) == 0 {
		return Value{kind: k}
	}
	return Value{kind: k, n: uint64(len(s)), p: unsafe.Pointer(unsafe.StringData(s))}
}

// listOf is NewList without the variadic call shape.
func listOf(vs []Value) Value {
	if len(vs) == 0 {
		return Value{kind: KindList}
	}
	return Value{kind: KindList, n: uint64(len(vs)), p: unsafe.Pointer(unsafe.SliceData(vs))}
}

// Unchecked payload accessors for the rest of the package: the caller
// has already switched on Kind.

func (v Value) str() string   { return unsafe.String((*byte)(v.p), int(v.n)) }
func (v Value) list() []Value { return unsafe.Slice((*Value)(v.p), int(v.n)) }
func (v Value) i64() int64    { return int64(v.n) }
func (v Value) f64() float64  { return math.Float64frombits(v.n) }

// word is the payload word: the int, bool or float bits of a scalar, the
// length of a string or list.
func (v Value) word() uint64 { return v.n }

// Kind reports the dynamic type of v.
func (v Value) Kind() Kind { return v.kind }

// IsNil reports whether v is the absent value.
func (v Value) IsNil() bool { return v.kind == KindNil }

// Addr returns the address payload. It panics if v is not an address.
func (v Value) Addr() string {
	if v.kind != KindAddr {
		panic("val: Addr on " + v.kind.String())
	}
	return v.str()
}

// Int returns the integer payload. It panics if v is not an int.
func (v Value) Int() int64 {
	if v.kind != KindInt {
		panic("val: Int on " + v.kind.String())
	}
	return v.i64()
}

// Float returns the float payload, converting from int if necessary.
// It panics if v is neither numeric kind.
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.f64()
	case KindInt:
		return float64(v.i64())
	}
	panic("val: Float on " + v.kind.String())
}

// Str returns the string payload. It panics if v is not a string.
func (v Value) Str() string {
	if v.kind != KindString {
		panic("val: Str on " + v.kind.String())
	}
	return v.str()
}

// Bool returns the boolean payload. It panics if v is not a bool.
func (v Value) Bool() bool {
	if v.kind != KindBool {
		panic("val: Bool on " + v.kind.String())
	}
	return v.n != 0
}

// List returns the list payload. It panics if v is not a list. Callers
// must not mutate the returned slice.
func (v Value) List() []Value {
	if v.kind != KindList {
		panic("val: List on " + v.kind.String())
	}
	return v.list()
}

// IsNumeric reports whether v is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// Equal reports deep equality of two values. Ints and floats are equal
// only if both kind and numeric value match (1 != 1.0), and floats
// compare by their canonical payload word (NaN equals NaN, see
// NewFloat), keeping equality consistent with Hash.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind || v.n != o.n {
		return false
	}
	if v.p == o.p {
		// Scalars (p is nil, the word is the whole value) and shared
		// storage (interned strings, lists passed along by reference).
		return true
	}
	switch v.kind {
	case KindAddr, KindString:
		return v.str() == o.str()
	case KindList:
		vl, ol := v.list(), o.list()
		for i := range vl {
			if !vl[i].Equal(ol[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Compare orders values. Values of different kinds order by kind; within a
// kind the natural order applies; lists order lexicographically. The result
// is -1, 0, or +1. Numeric cross-kind comparison (int vs float) compares by
// numeric value first and breaks ties by kind, and NaN sorts below every
// other number, so that Compare remains a total order consistent with
// Equal.
func (v Value) Compare(o Value) int {
	if v.kind == KindInt && o.kind == KindInt {
		// Compare ints exactly: the float path below would collapse
		// distinct values beyond 2^53, breaking the total order Tuples()
		// ordering depends on.
		return cmpInt(v.i64(), o.i64())
	}
	vn, on := v.IsNumeric(), o.IsNumeric()
	if vn && on {
		vf, of := v.Float(), o.Float()
		switch {
		case vf < of:
			return -1
		case vf > of:
			return 1
		case vf != vf || of != of:
			// Only floats are NaN, and there is one NaN: it equals itself
			// and is smaller than anything else.
			switch {
			case vf == vf:
				return 1
			case of == of:
				return -1
			}
			return 0
		}
		return cmpInt(int64(v.kind), int64(o.kind))
	}
	if v.kind != o.kind {
		return cmpInt(int64(v.kind), int64(o.kind))
	}
	switch v.kind {
	case KindNil:
		return 0
	case KindAddr, KindString:
		return strings.Compare(v.str(), o.str())
	case KindBool:
		return cmpInt(v.i64(), o.i64())
	case KindList:
		vl, ol := v.list(), o.list()
		n := min(len(vl), len(ol))
		for i := 0; i < n; i++ {
			if c := vl[i].Compare(ol[i]); c != 0 {
				return c
			}
		}
		return cmpInt(int64(len(vl)), int64(len(ol)))
	}
	return 0
}

func cmpInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// String renders v in NDlog literal syntax. Addresses print bare, strings
// print quoted, lists print in brackets.
func (v Value) String() string {
	switch v.kind {
	case KindNil:
		return "nil"
	case KindAddr:
		return v.str()
	case KindInt:
		return strconv.FormatInt(v.i64(), 10)
	case KindFloat:
		return strconv.FormatFloat(v.f64(), 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.str())
	case KindBool:
		if v.n != 0 {
			return "true"
		}
		return "false"
	case KindList:
		var b strings.Builder
		b.WriteByte('[')
		for i, e := range v.list() {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(e.String())
		}
		b.WriteByte(']')
		return b.String()
	}
	return "?"
}

// SortValues sorts vs in place using Compare.
func SortValues(vs []Value) {
	sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
}
