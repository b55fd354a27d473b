package val

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

func internTuples() []Tuple {
	return []Tuple{
		NewTuple("path", NewAddr("a"), NewAddr("d"),
			NewList(NewAddr("a"), NewAddr("b"), NewAddr("d")), NewFloat(2.5)),
		NewTuple("path", NewAddr("a"), NewAddr("d"),
			NewList(NewAddr("a"), NewAddr("c"), NewAddr("d")), NewFloat(3.5)),
		NewTuple("link", NewAddr("a"), NewAddr("b"), NewInt(1)),
		NewTuple("q", NewAddr("x"), NewString("hello"), NewBool(true), Nil),
	}
}

// sameStorage reports whether two tuples are the same canonical object:
// same predicate and shared field storage.
func sameStorage(a, b Tuple) bool {
	if a.Pred != b.Pred || len(a.Fields) != len(b.Fields) {
		return false
	}
	return len(a.Fields) == 0 || &a.Fields[0] == &b.Fields[0]
}

func TestInternCanonicalIdentity(t *testing.T) {
	in := NewInterner()
	for _, tp := range internTuples() {
		c1 := in.Intern(tp)
		// A structurally-equal tuple with fresh storage must resolve to
		// the identical canonical object.
		c2 := in.Intern(tp.Clone())
		if !sameStorage(c1, c2) {
			t.Errorf("Intern(%v): clones did not unify onto one canonical tuple", tp)
		}
	}
	if got, want := in.Len(), len(internTuples()); got != want {
		t.Errorf("Len = %d, want %d (one entry per distinct tuple)", got, want)
	}
}

// aliasingTuples are the shapes the single-backing decode lays out
// differently: no list, a list mid-row, a list as the last field, an
// empty list, two lists, and lists nested inside a list.
func aliasingTuples() []Tuple {
	return []Tuple{
		NewTuple("path", NewAddr("node-one"), NewAddr("node-two"),
			NewList(NewAddr("node-one"), NewAddr("mid"), NewAddr("node-two")),
			NewString("metadata"), NewFloat(7.25)),
		NewTuple("tail", NewAddr("node-one"), NewInt(3),
			NewList(NewString("last"), NewString("field"))),
		NewTuple("empty", NewAddr("node-one"), NewList(), NewString("after")),
		NewTuple("two", NewList(NewInt(1), NewInt(2)), NewAddr("between"), NewList(NewAddr("z"))),
		NewTuple("nested", NewAddr("node-one"),
			NewList(NewList(NewAddr("inner-a"), NewList()), NewString("mid"), NewList(NewList(NewInt(9))))),
		NewTuple("flat", NewAddr("node-one"), NewString("hello"), NewBool(true), Nil),
		NewTuple("nofields"),
	}
}

// TestDecodeDoesNotAliasBuffer is the aliasing regression test: decode a
// tuple (plain and through an interner), scribble over the source
// buffer, and verify the decoded tuples are intact. Any string or list
// field retaining a view of the buffer fails this.
func TestDecodeDoesNotAliasBuffer(t *testing.T) {
	in := NewInterner()
	for _, orig := range aliasingTuples() {
		enc := AppendTuple(nil, orig)
		buf := append([]byte(nil), enc...)
		plain, n1, err := DecodeTuple(buf)
		if err != nil {
			t.Fatal(err)
		}
		interned, n2, err := DecodeTupleIn(buf, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		// A second decode through the now-warm string table: its strings
		// are the retained copies, which the scribble must not reach.
		warm, _, err := DecodeTupleIn(buf, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != len(enc) || n2 != len(enc) {
			t.Fatalf("consumed %d/%d bytes, want %d", n1, n2, len(enc))
		}

		// Scribble: simulate the datagram loop reusing its read buffer.
		for i := range buf {
			buf[i] = 0xFF
		}

		for name, got := range map[string]Tuple{"plain": plain, "interned": interned, "warm": warm} {
			if !got.Equal(orig) {
				t.Errorf("%s decode corrupted by buffer reuse: %v", name, got)
			}
			if re := AppendTuple(nil, got); !bytes.Equal(re, enc) {
				t.Errorf("%s decode does not re-encode identically after scribble", name)
			}
		}
	}
}

// TestDecodeTupleSingleBacking pins the decode layout: fields and the
// elements of top-level lists are one allocation, and neither slice can
// grow into the other.
func TestDecodeTupleSingleBacking(t *testing.T) {
	in := NewInterner()
	for _, orig := range aliasingTuples() {
		enc := AppendTuple(nil, orig)
		if _, _, err := DecodeTupleIn(enc, in, nil); err != nil { // warm the string table
			t.Fatal(err)
		}
		nested := 0
		for _, f := range orig.Fields {
			if f.Kind() == KindList {
				for _, e := range f.List() {
					if e.Kind() == KindList {
						nested++
					}
				}
			}
		}
		if nested == 0 {
			want := 1.0
			if len(orig.Fields) == 0 {
				want = 0
			}
			if got := testing.AllocsPerRun(100, func() { DecodeTupleIn(enc, in, nil) }); got != want {
				t.Errorf("%s: decode with warm strings allocates %v objects, want %v", orig.Pred, got, want)
			}
		}

		got, _, err := DecodeTupleIn(enc, in, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cap(got.Fields) != len(got.Fields) {
			t.Errorf("%s: Fields has spare capacity %d: an append would overwrite list elements",
				orig.Pred, cap(got.Fields)-len(got.Fields))
		}
		grown := append(got.Fields, NewString("appended"))
		_ = grown
		for i, f := range got.Fields {
			if f.Kind() == KindList {
				if l := f.List(); cap(l) != len(l) {
					t.Errorf("%s field %d: list has spare capacity", orig.Pred, i)
				}
			}
		}
		if !got.Equal(orig) {
			t.Errorf("%s: append to Fields corrupted the tuple: %v", orig.Pred, got)
		}
	}
}

// TestInternHashCollision forces structurally-distinct tuples into one
// 64-bit bucket via a truncating key map and asserts the interner keeps
// them apart — hash-equal must never be treated as equal.
func TestInternHashCollision(t *testing.T) {
	in := newInterner(DefaultInternLimit, func(h uint64) uint64 { return 42 })
	tps := internTuples()
	canon := make([]Tuple, len(tps))
	for i, tp := range tps {
		canon[i] = in.Intern(tp)
	}
	for i, tp := range tps {
		got := in.Intern(tp.Clone())
		if !sameStorage(canon[i], got) {
			t.Errorf("collision bucket lost tuple %v", tp)
		}
		for j := range tps {
			if i != j && sameStorage(canon[j], got) {
				t.Errorf("collision bucket unified distinct tuples %v and %v", tp, tps[j])
			}
		}
	}
}

// TestInternGenerationBound pins the two-generation aging: the table
// never exceeds two generations of the limit — whether it is fed tuples
// or decoded strings — and hot entries survive a flip through promotion.
func TestInternGenerationBound(t *testing.T) {
	const limit = 8
	in := newInterner(limit, nil)
	hot := in.Intern(NewTuple("hot", NewAddr("x"), NewList(NewInt(0))))
	hotStr := in.InternBytes([]byte("hot-string"))
	for i := 0; i < 10*limit; i++ {
		in.Intern(NewTuple("cold", NewInt(int64(i)), NewList(NewInt(int64(i)))))
		in.InternBytes([]byte(fmt.Sprintf("cold-%d", i)))
		// Touch the hot entries every round so promotion keeps them alive.
		if got := in.Intern(NewTuple("hot", NewAddr("x"), NewList(NewInt(0)))); !sameStorage(hot, got) {
			t.Fatalf("hot tuple lost identity after %d cold interns", i)
		}
		if got := in.InternBytes([]byte("hot-string")); unsafe.StringData(got) != unsafe.StringData(hotStr) {
			t.Fatalf("hot string lost identity after %d cold interns", i)
		}
		if in.Len() > 2*limit+2 {
			t.Fatalf("table exceeded two generations: %d entries", in.Len())
		}
	}
}
