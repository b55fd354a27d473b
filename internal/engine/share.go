package engine

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ndlog/internal/val"
)

// ShareConfig enables opportunistic message sharing (Section 5.2):
// outbound tuples are buffered for Delay seconds; tuples bound for the
// same destination that are identical modulo a few "varying" columns
// (typically the metric attribute) are combined into one message that
// encodes the shared columns once.
type ShareConfig struct {
	// Delay is the outbound buffering window in virtual seconds (the
	// paper uses 300 ms).
	Delay float64
	// Group maps a predicate to its share group; predicates in the same
	// group may combine (e.g. the per-metric path predicates path_lat,
	// path_rel, path_rnd).
	Group map[string]string
	// VaryCols lists, per predicate, the columns allowed to differ within
	// a combined message (e.g. the cost column).
	VaryCols map[string][]int
}

// shareKey identifies one share partition: either a shareable group
// (share-group name plus the non-varying column values, which deltas
// must agree on to combine) or a solo partition holding one distinct
// unshareable tuple. Partitions live in a hash-keyed map with collision
// chains resolved by equal, mirroring the storage layer's hash-first
// keying.
type shareKey struct {
	solo bool
	base val.Tuple   // solo only: the tuple itself
	name string      // share group name
	vals []val.Value // non-varying column values, in column order
}

func (k shareKey) hash() uint64 {
	if k.solo {
		return k.base.Hash() ^ 0x736f6c6f // flip bits so solo keys cannot shadow group keys
	}
	h := val.NewHash().AddString(k.name)
	for _, v := range k.vals {
		h = h.AddValue(v)
	}
	return h.Sum()
}

func (k shareKey) equal(o shareKey) bool {
	if k.solo != o.solo {
		return false
	}
	if k.solo {
		return k.base.Equal(o.base)
	}
	return k.name == o.name && val.ValuesEqual(k.vals, o.vals)
}

// keyFor computes the share partition key for a delta.
func (sc *ShareConfig) keyFor(d Delta) shareKey {
	group, ok := sc.Group[d.Tuple.Pred]
	if !ok {
		return shareKey{solo: true, base: d.Tuple}
	}
	vary := sc.VaryCols[d.Tuple.Pred]
	isVary := func(i int) bool {
		for _, c := range vary {
			if c == i {
				return true
			}
		}
		return false
	}
	k := shareKey{name: group}
	for i, f := range d.Tuple.Fields {
		if isVary(i) {
			continue
		}
		k.vals = append(k.vals, f)
	}
	return k
}

// EncodeShared marshals a batch of deltas with cross-tuple field
// sharing. Deltas are partitioned by share key; each partition encodes
// its first delta completely and the rest as (head, pred, varying
// column values), where a head is a plain batch's sign byte and optional
// lifetime (appendHead).
func EncodeShared(sc *ShareConfig, ds []Delta) []byte {
	type group struct {
		key    shareKey
		deltas []Delta
	}
	byKey := map[uint64][]*group{}
	var order []*group
	for _, d := range ds {
		key := sc.keyFor(d)
		h := key.hash()
		var g *group
		for _, cand := range byKey[h] {
			if cand.key.equal(key) {
				g = cand
				break
			}
		}
		if g == nil {
			g = &group{key: key}
			byKey[h] = append(byKey[h], g)
			order = append(order, g)
		}
		g.deltas = append(g.deltas, d)
	}

	size := 11
	for _, d := range ds {
		size += 24 + len(d.Tuple.Pred) + 12*len(d.Tuple.Fields)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, byte(msgShared))
	buf = binary.AppendUvarint(buf, uint64(len(order)))
	for _, g := range order {
		base := g.deltas[0]
		buf = appendDelta(buf, base)
		extras := g.deltas[1:]
		buf = binary.AppendUvarint(buf, uint64(len(extras)))
		for _, e := range extras {
			buf = appendHead(buf, e)
			buf = appendShareString(buf, e.Tuple.Pred)
			vary := sc.VaryCols[e.Tuple.Pred]
			cols := append([]int(nil), vary...)
			sort.Ints(cols)
			buf = binary.AppendUvarint(buf, uint64(len(cols)))
			for _, c := range cols {
				buf = binary.AppendUvarint(buf, uint64(c))
				if c < len(e.Tuple.Fields) {
					buf = val.AppendValue(buf, e.Tuple.Fields[c])
				} else {
					buf = val.AppendValue(buf, val.Nil)
				}
			}
		}
	}
	return buf
}

func appendShareString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// readShareString decodes a predicate name; the result is copied (or
// interned), never a view of b.
func readShareString(b []byte, in *val.Interner) (string, int, error) {
	l, n := binary.Uvarint(b)
	if n <= 0 || uint64(len(b)-n) < l {
		return "", 0, fmt.Errorf("engine: corrupt shared string")
	}
	if in != nil {
		return in.InternBytes(b[n : n+int(l)]), n + int(l), nil
	}
	return string(b[n : n+int(l)]), n + int(l), nil
}

// DecodeShared expands a share-combined message back into its deltas.
func DecodeShared(b []byte) ([]Delta, error) { return DecodeSharedIn(b, nil) }

// DecodeSharedIn is DecodeShared resolving strings through the receiving
// node's string table (nil copies them).
func DecodeSharedIn(b []byte, in *val.Interner) ([]Delta, error) {
	if len(b) == 0 || msgKind(b[0]) != msgShared {
		return nil, fmt.Errorf("engine: not a shared message")
	}
	b = b[1:]
	ngroups, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, fmt.Errorf("engine: corrupt shared header")
	}
	b = b[n:]
	// Preallocate for the declared group count, capped by the remaining
	// payload (each group takes at least one byte) so a corrupt header
	// cannot demand a huge allocation before truncation checks run.
	out := make([]Delta, 0, min(ngroups, uint64(len(b))))
	for gi := uint64(0); gi < ngroups; gi++ {
		sign, life, h, err := decodeHead(b)
		if err != nil {
			return nil, err
		}
		b = b[h:]
		base, m, err := val.DecodeTupleIn(b, in, nil)
		if err != nil {
			return nil, err
		}
		b = b[m:]
		out = append(out, Delta{Sign: sign, Life: life, Tuple: base})
		nextra, m2 := binary.Uvarint(b)
		if m2 <= 0 {
			return nil, fmt.Errorf("engine: corrupt extra count")
		}
		b = b[m2:]
		for ei := uint64(0); ei < nextra; ei++ {
			esign, elife, eh, err := decodeHead(b)
			if err != nil {
				return nil, err
			}
			b = b[eh:]
			pred, m3, err := readShareString(b, in)
			if err != nil {
				return nil, err
			}
			b = b[m3:]
			ncols, m4 := binary.Uvarint(b)
			if m4 <= 0 {
				return nil, fmt.Errorf("engine: corrupt vary count")
			}
			b = b[m4:]
			fields := make([]val.Value, len(base.Fields))
			copy(fields, base.Fields)
			for ci := uint64(0); ci < ncols; ci++ {
				col, m5 := binary.Uvarint(b)
				if m5 <= 0 {
					return nil, fmt.Errorf("engine: corrupt vary column")
				}
				b = b[m5:]
				v, m6, err := val.DecodeValueIn(b, in)
				if err != nil {
					return nil, err
				}
				b = b[m6:]
				if int(col) < len(fields) {
					fields[col] = v
				}
			}
			out = append(out, Delta{Sign: esign, Life: elife, Tuple: val.Tuple{Pred: pred, Fields: fields}})
		}
	}
	return out, nil
}

// DecodeMessage dispatches on the message kind byte.
func DecodeMessage(b []byte) ([]Delta, error) { return DecodeMessageIn(b, nil) }

// DecodeMessageIn is DecodeMessage resolving strings through the
// receiving node's string table (nil copies them).
func DecodeMessageIn(b []byte, in *val.Interner) ([]Delta, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("engine: empty message")
	}
	switch msgKind(b[0]) {
	case msgDeltas:
		return DecodeDeltasIn(b, in)
	case msgShared:
		return DecodeSharedIn(b, in)
	}
	return nil, fmt.Errorf("engine: unknown message kind %d", b[0])
}

// DecodeMessageInto is DecodeMessageIn appending into a caller-owned
// scratch slice (see DecodeDeltasInto). Share-combined batches expand
// to a variable number of deltas, so those still allocate their own
// batch and are appended; the plain-delta hot path decodes in place.
func DecodeMessageInto(b []byte, in *val.Interner, dst []Delta) ([]Delta, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("engine: empty message")
	}
	switch msgKind(b[0]) {
	case msgDeltas:
		return DecodeDeltasInto(b, in, dst)
	case msgShared:
		ds, err := DecodeSharedIn(b, in)
		if err != nil {
			return nil, err
		}
		return append(dst, ds...), nil
	}
	return nil, fmt.Errorf("engine: unknown message kind %d", b[0])
}
