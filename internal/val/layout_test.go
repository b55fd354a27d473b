package val

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// TestValueSize pins the three-word layout (DESIGN.md §12): a field
// added to Value silently costs every tuple field and list element.
func TestValueSize(t *testing.T) {
	if sz := unsafe.Sizeof(Value{}); sz > 24 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 24", sz)
	}
}

// TestFloatCanonical: Equal floats have one representation — one hash,
// one wire encoding — whichever zero or NaN they were built from, and a
// non-canonical float on the wire decodes to the canonical one.
func TestFloatCanonical(t *testing.T) {
	negZero := math.Copysign(0, -1)
	oddNaN := math.Float64frombits(0xFFF0000000000BAD)
	for _, pair := range [][2]float64{{0, negZero}, {math.NaN(), oddNaN}} {
		a, b := NewFloat(pair[0]), NewFloat(pair[1])
		if !a.Equal(b) || a.Compare(b) != 0 {
			t.Errorf("%v and %v must be Equal and Compare 0", a, b)
		}
		if a.Hash() != b.Hash() {
			t.Errorf("%v and %v are Equal but hash differently", a, b)
		}
		if !bytes.Equal(AppendValue(nil, a), AppendValue(nil, b)) {
			t.Errorf("%v and %v are Equal but encode differently", a, b)
		}
		// The same float arriving un-canonicalised from a peer.
		wire := binary.AppendUvarint([]byte{byte(KindFloat)}, math.Float64bits(pair[1]))
		for _, in := range []*Interner{nil, NewInterner()} {
			got, n, err := DecodeValueIn(wire, in)
			if err != nil || n != len(wire) {
				t.Fatalf("decode %x: n=%d err=%v", wire, n, err)
			}
			if !got.Equal(a) || got.Hash() != a.Hash() {
				t.Errorf("wire float %x decoded to %v, not the canonical %v", wire, got, a)
			}
		}
	}
	if math.Signbit(NewFloat(negZero).Float()) {
		t.Error("-0 must be stored as +0")
	}
	// NaN sorts below every other number and equals only itself.
	nan := NewFloat(math.NaN())
	for _, o := range []Value{NewFloat(math.Inf(-1)), NewInt(math.MinInt64), NewFloat(0), NewInt(7)} {
		if nan.Compare(o) != -1 || o.Compare(nan) != 1 || nan.Equal(o) {
			t.Errorf("NaN vs %v: Compare %d/%d Equal %v", o, nan.Compare(o), o.Compare(nan), nan.Equal(o))
		}
	}
}

// TestPropertyLayout checks, over generated values including the edge
// payloads, the contracts every layer above relies on: Equal implies
// equal hashes, Compare == 0 exactly when Equal, encode → decode is
// byte-exact, and a decoded value (plain or interned) owns its storage —
// scribbling over the input buffer changes nothing.
func TestPropertyLayout(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	in := NewInterner()
	for i := 0; i < 4000; i++ {
		a, b := randomValue(r, 3), randomValue(r, 3)
		if a.Equal(b) != (a.Compare(b) == 0) {
			t.Fatalf("Equal %v but Compare %d: %v vs %v", a.Equal(b), a.Compare(b), a, b)
		}
		if a.Equal(b) && a.Hash() != b.Hash() {
			t.Fatalf("Equal values hash differently: %v vs %v", a, b)
		}

		enc := AppendValue(nil, a)
		buf := append([]byte(nil), enc...)
		plain, n1, err1 := DecodeValue(buf)
		interned, n2, err2 := DecodeValueIn(buf, in)
		if err1 != nil || err2 != nil || n1 != len(enc) || n2 != len(enc) {
			t.Fatalf("decode %v: n=%d/%d of %d, err=%v/%v", a, n1, n2, len(enc), err1, err2)
		}
		for j := range buf {
			buf[j] = ^buf[j]
		}
		for name, got := range map[string]Value{"plain": plain, "interned": interned} {
			// A copy in different storage: the pointer fast path cannot
			// answer, so Equal and Hash walk the payload.
			if !got.Equal(a) || !a.Equal(got) || got.Compare(a) != 0 {
				t.Fatalf("%s decode of %v is %v after scribble", name, a, got)
			}
			if got.Hash() != a.Hash() {
				t.Fatalf("%s decode of %v hashes differently", name, a)
			}
			if re := AppendValue(nil, got); !bytes.Equal(re, enc) {
				t.Fatalf("%s decode of %v re-encodes %x, want %x", name, a, re, enc)
			}
		}
	}
}
