package val

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Wire encoding. Tuples cross simulated network links as byte slices so
// that the experiment harness can account bandwidth the way the paper
// does (kBps per node, aggregate MB). The format is a compact
// tag-length-value encoding:
//
//	tuple  := pred(string) nfields(uvarint) value*
//	value  := kind(byte) payload
//	string := len(uvarint) bytes
//
// The encoding round-trips exactly (see TestEncodeRoundTrip) and is also
// used by the opportunistic message-sharing optimizer to measure the
// bytes saved by combining tuples.

// ErrCorrupt is returned when decoding malformed bytes.
var ErrCorrupt = errors.New("val: corrupt encoding")

// AppendValue appends the wire encoding of v to dst and returns the
// extended slice.
func AppendValue(dst []byte, v Value) []byte {
	k := v.Kind()
	dst = append(dst, byte(k))
	switch k {
	case KindNil:
	case KindAddr, KindString:
		dst = appendString(dst, v.str())
	case KindInt:
		dst = binary.AppendVarint(dst, v.i64())
	case KindBool:
		dst = append(dst, byte(v.word()))
	case KindFloat:
		dst = binary.AppendUvarint(dst, v.word())
	case KindList:
		l := v.list()
		dst = binary.AppendUvarint(dst, uint64(len(l)))
		for i := range l {
			dst = AppendValue(dst, l[i])
		}
	}
	return dst
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// DecodeValue decodes one value from b, returning the value and the
// number of bytes consumed. Decoded strings never alias b: they are
// copied (or resolved to an interned copy), so callers may reuse or
// scribble over the buffer once decoding returns.
func DecodeValue(b []byte) (Value, int, error) { return DecodeValueIn(b, nil) }

// DecodeValueIn is DecodeValue resolving strings through in's string
// table (nil behaves like DecodeValue).
func DecodeValueIn(b []byte, in *Interner) (Value, int, error) {
	if len(b) == 0 {
		return Nil, 0, ErrCorrupt
	}
	k := Kind(b[0])
	n := 1
	switch k {
	case KindNil:
		return Nil, n, nil
	case KindAddr, KindString:
		s, m, err := decodeStringIn(b[n:], in)
		if err != nil {
			return Nil, 0, err
		}
		return stringOf(k, s), n + m, nil
	case KindInt:
		i, m := binary.Varint(b[n:])
		if m <= 0 {
			return Nil, 0, ErrCorrupt
		}
		return NewInt(i), n + m, nil
	case KindBool:
		if len(b) < n+1 {
			return Nil, 0, ErrCorrupt
		}
		return NewBool(b[n] != 0), n + 1, nil
	case KindFloat:
		u, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return Nil, 0, ErrCorrupt
		}
		return NewFloat(math.Float64frombits(u)), n + m, nil
	case KindList:
		cnt, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return Nil, 0, ErrCorrupt
		}
		n += m
		// Cap preallocation by the remaining payload (each element takes
		// at least one byte): a corrupt length must fail on truncation,
		// not allocate first.
		vs := make([]Value, 0, min(cnt, uint64(len(b)-n)))
		for i := uint64(0); i < cnt; i++ {
			v, m, err := DecodeValueIn(b[n:], in)
			if err != nil {
				return Nil, 0, err
			}
			vs = append(vs, v)
			n += m
		}
		return listOf(vs), n, nil
	}
	return Nil, 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, k)
}

// skipValue returns the encoded length of the value at the head of b
// without building it — the sizing pass of DecodeTupleIn. It accepts
// exactly the structure DecodeValueIn accepts.
func skipValue(b []byte) (int, error) {
	if len(b) == 0 {
		return 0, ErrCorrupt
	}
	k := Kind(b[0])
	n := 1
	switch k {
	case KindNil:
		return n, nil
	case KindAddr, KindString:
		l, m := binary.Uvarint(b[n:])
		if m <= 0 || uint64(len(b)-n-m) < l {
			return 0, ErrCorrupt
		}
		return n + m + int(l), nil
	case KindInt:
		if _, m := binary.Varint(b[n:]); m > 0 {
			return n + m, nil
		}
		return 0, ErrCorrupt
	case KindBool:
		if len(b) < n+1 {
			return 0, ErrCorrupt
		}
		return n + 1, nil
	case KindFloat:
		if _, m := binary.Uvarint(b[n:]); m > 0 {
			return n + m, nil
		}
		return 0, ErrCorrupt
	case KindList:
		cnt, m := binary.Uvarint(b[n:])
		if m <= 0 {
			return 0, ErrCorrupt
		}
		n += m
		for i := uint64(0); i < cnt; i++ {
			m, err := skipValue(b[n:])
			if err != nil {
				return 0, err
			}
			n += m
		}
		return n, nil
	}
	return 0, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, k)
}

// decodeStringIn decodes a length-prefixed string. The result never
// aliases b: string(bytes) copies, and the interner's byte lookup copies
// on miss — the copy-on-decode invariant wire buffers rely on.
func decodeStringIn(b []byte, in *Interner) (string, int, error) {
	l, m := binary.Uvarint(b)
	if m <= 0 || uint64(len(b)-m) < l {
		return "", 0, ErrCorrupt
	}
	bs := b[m : m+int(l)]
	if in != nil {
		return in.InternBytes(bs), m + int(l), nil
	}
	return string(bs), m + int(l), nil
}

// AppendString appends the length-prefixed wire encoding of s to dst.
// It is the string primitive of the tuple encoding, exported so that
// other encodings (the engine's node state) write strings the same way.
func AppendString(dst []byte, s string) []byte { return appendString(dst, s) }

// DecodeString decodes one length-prefixed string from b, returning it
// and the bytes consumed. The result never aliases b.
func DecodeString(b []byte) (string, int, error) { return decodeStringIn(b, nil) }

// AppendTuple appends the wire encoding of t to dst.
func AppendTuple(dst []byte, t Tuple) []byte {
	dst = appendString(dst, t.Pred)
	dst = binary.AppendUvarint(dst, uint64(len(t.Fields)))
	for i := range t.Fields {
		dst = AppendValue(dst, t.Fields[i])
	}
	return dst
}

// DecodeTuple decodes one tuple from b, returning it and the bytes
// consumed. The tuple owns its storage: no field retains a view of b.
func DecodeTuple(b []byte) (Tuple, int, error) { return DecodeTupleIn(b, nil, nil) }

// DecodeTupleIn is DecodeTuple resolving the predicate name and every
// string through in's string table (nil copies them). The tuple's fields
// and the elements of its top-level lists share one backing array — a
// path tuple with known strings costs at most one allocation — which a
// sizing pass over the bytes measures before anything is built, so a
// corrupt count fails on truncation instead of allocating. The array is
// carved from c (see Carver), so pass a Carver only for a tuple nobody
// will store; nil allocates it exactly. Lists nested inside lists
// allocate their own arrays. The result never aliases b.
func DecodeTupleIn(b []byte, in *Interner, c *Carver) (Tuple, int, error) {
	pred, n, err := decodeStringIn(b, in)
	if err != nil {
		return Tuple{}, 0, err
	}
	cnt, m := binary.Uvarint(b[n:])
	if m <= 0 {
		return Tuple{}, 0, ErrCorrupt
	}
	n += m

	// Sizing pass: every field and every top-level list element occupies
	// at least one byte of b, so total is bounded by len(b).
	total := cnt
	for i, p := uint64(0), n; i < cnt; i++ {
		if p < len(b) && Kind(b[p]) == KindList {
			if lc, m := binary.Uvarint(b[p+1:]); m > 0 {
				total += lc
			}
		}
		m, err := skipValue(b[p:])
		if err != nil {
			return Tuple{}, 0, err
		}
		p += m
	}

	vs := c.Make(int(total))
	// Full slice expressions: an append to Fields must never grow into
	// the list elements behind it.
	fields, rest := vs[:cnt:cnt], vs[cnt:]
	for i := range fields {
		if Kind(b[n]) != KindList {
			v, m, err := DecodeValueIn(b[n:], in)
			if err != nil {
				return Tuple{}, 0, err
			}
			fields[i] = v
			n += m
			continue
		}
		lc, m := binary.Uvarint(b[n+1:])
		n += 1 + m
		elems := rest[:lc:lc]
		rest = rest[lc:]
		for j := range elems {
			v, m, err := DecodeValueIn(b[n:], in)
			if err != nil {
				return Tuple{}, 0, err
			}
			elems[j] = v
			n += m
		}
		fields[i] = listOf(elems)
	}
	return Tuple{Pred: pred, Fields: fields}, n, nil
}

// EncodedSize returns the wire size of t in bytes without allocating the
// encoding (used on hot accounting paths).
func EncodedSize(t Tuple) int {
	n := uvarintLen(uint64(len(t.Pred))) + len(t.Pred)
	n += uvarintLen(uint64(len(t.Fields)))
	for i := range t.Fields {
		n += valueSize(t.Fields[i])
	}
	return n
}

func valueSize(v Value) int {
	n := 1
	switch v.Kind() {
	case KindAddr, KindString:
		n += uvarintLen(v.word()) + int(v.word())
	case KindInt:
		n += varintLen(v.i64())
	case KindBool:
		n++
	case KindFloat:
		n += uvarintLen(v.word())
	case KindList:
		l := v.list()
		n += uvarintLen(uint64(len(l)))
		for i := range l {
			n += valueSize(l[i])
		}
	}
	return n
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}
