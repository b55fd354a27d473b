package val

import (
	"bytes"
	"testing"
)

// FuzzIntern drives random tuple batches through encode → decode →
// intern and checks the interner's contracts:
//
//   - decoding through the string table accepts exactly what the plain
//     decode accepts, and consumes the same bytes;
//   - structural-equal inputs map to the identical canonical object
//     (shared field storage);
//   - interned tuples round-trip Encode byte-for-byte with their plain
//     (interner-free) decode;
//   - none of it aliases the input buffer (the batch is scribbled after
//     decoding and the results re-checked).
func FuzzIntern(f *testing.F) {
	encodeBatch := func(tps []Tuple) []byte {
		var b []byte
		for _, tp := range tps {
			b = AppendTuple(b, tp)
		}
		return b
	}
	f.Add(encodeBatch(internTuples()))
	// A batch with duplicates: identity unification must kick in.
	dup := internTuples()[0]
	f.Add(encodeBatch([]Tuple{dup, dup.Clone(), dup}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, b []byte) {
		in := NewInterner()
		work := append([]byte(nil), b...)

		type decoded struct {
			plain Tuple
			canon Tuple
			enc   []byte
		}
		var ds []decoded
		rest := work
		orig := b
		for len(rest) > 0 {
			plain, n1, err1 := DecodeTuple(orig[len(orig)-len(rest):])
			it, n2, err2 := DecodeTupleIn(rest, in, nil)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("plain and interned decode disagree: %v vs %v", err1, err2)
			}
			if err1 != nil {
				break
			}
			if n1 != n2 {
				t.Fatalf("consumed %d (plain) vs %d (interned) bytes", n1, n2)
			}
			canon := in.Intern(it)
			ds = append(ds, decoded{plain: plain, canon: canon,
				enc: AppendTuple(nil, plain)})
			rest = rest[n2:]
			if len(ds) > 256 {
				break // bound fuzz cost on giant batches
			}
		}

		// Scribble the working buffer: no decoded tuple may change.
		for i := range work {
			work[i] = ^work[i]
		}

		for i, d := range ds {
			if !d.canon.Equal(d.plain) {
				t.Fatalf("tuple %d: interned %v != plain %v", i, d.canon, d.plain)
			}
			// Interned tuples round-trip Encode byte-for-byte.
			if re := AppendTuple(nil, d.canon); !bytes.Equal(re, d.enc) {
				t.Fatalf("tuple %d: interned encode %x != plain encode %x", i, re, d.enc)
			}
			// Structural-equal inputs share one canonical object.
			for j := i + 1; j < len(ds); j++ {
				o := ds[j]
				if d.plain.Equal(o.plain) != sameStorage(d.canon, o.canon) {
					t.Fatalf("tuples %d/%d: equality %v but shared storage %v",
						i, j, d.plain.Equal(o.plain), sameStorage(d.canon, o.canon))
				}
			}
		}
	})
}
