package table

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"ndlog/internal/val"
)

// TestLayoutSizes pins Entry, one slot of a table's slab, at 56 bytes
// (DESIGN.md §12): the tuple's fields without its predicate, the stamp,
// the deadline, and one word each for the count with the chain link and
// for the slot's generation with the advertisement flag. Every word more
// is a seventh more slab per stored row.
func TestLayoutSizes(t *testing.T) {
	if sz := unsafe.Sizeof(Entry{}); sz > 56 {
		t.Fatalf("unsafe.Sizeof(Entry{}) = %d, want <= 56", sz)
	}
}

// TestFloatKeysCanonical is the regression test for Equal floats that
// hashed apart: +0/-0 used to be two rows of a whole-row-keyed table
// (second Insert returned StatusNew), and a NaN row could never be
// matched again for Delete.
func TestFloatKeysCanonical(t *testing.T) {
	row := func(f float64) val.Tuple {
		return val.NewTuple("p", val.NewAddr("n1"), val.NewFloat(f))
	}
	tb := New("p", nil, -1, 0)
	idx := tb.EnsureIndex([]int{1})
	if st := tb.Insert(row(0), 1, 0).Status; st != StatusNew {
		t.Fatalf("first insert: %v", st)
	}
	if st := tb.Insert(row(math.Copysign(0, -1)), 2, 0).Status; st != StatusDuplicate {
		t.Errorf("insert of -0 after +0: status %v, want duplicate", st)
	}
	if tb.Len() != 1 || tb.Count(row(0)) != 2 {
		t.Errorf("len %d count %d, want one row counted twice", tb.Len(), tb.Count(row(0)))
	}
	if got := idx.Match([]val.Value{val.NewFloat(math.Copysign(0, -1))}); len(got) != 1 {
		t.Errorf("index probe with -0 found %d rows, want 1", len(got))
	}

	// A NaN row that came off the wire with some other NaN payload.
	wire := val.AppendTuple(nil, row(math.NaN()))
	decoded, _, err := val.DecodeTuple(wire)
	if err != nil {
		t.Fatal(err)
	}
	tb.Insert(decoded, 3, 0)
	if !tb.Contains(row(math.Float64frombits(0xFFF8000000000123))) {
		t.Error("stored NaN row not found by an equal NaN row")
	}
	if gone, existed := tb.Delete(row(math.NaN())); !gone || !existed {
		t.Errorf("delete of NaN row: gone=%v existed=%v", gone, existed)
	}
	if tb.Len() != 1 {
		t.Errorf("len %d after deleting the NaN row, want 1", tb.Len())
	}
}

// TestIndexOrderMatchesSliceModel drives an Index through random
// insert/remove sequences next to the layout it replaced — a plain
// []*Entry per key under append and swap-remove — and requires the same
// iteration order from Bucket and Match. Join order is behaviour: it
// decides the order derivations are emitted in, and so which of two
// cost-tied rows an aggregate selection keeps.
func TestIndexOrderMatchesSliceModel(t *testing.T) {
	for _, post := range []func(uint64) uint64{nil, func(h uint64) uint64 { return h & 1 }} {
		r := rand.New(rand.NewSource(5))
		tb := New("p", nil, -1, 0)
		tb.post = post
		idx := tb.EnsureIndex([]int{1})
		slot := func(v val.Value) uint64 { return idx.mapKey(val.HashValues([]val.Value{v})) }

		model := map[uint64][]*Entry{} // index slot -> bucket, the old layout
		var live []val.Tuple
		for step := 0; step < 6000; step++ {
			// Phases: grow buckets to dozens of entries, then drain
			// them to empty, so every inline/overflow transition runs.
			grow := (step/1000)%2 == 0
			if (r.Intn(10) < 7) == grow || len(live) == 0 {
				tp := val.NewTuple("p", val.NewInt(int64(r.Intn(400))),
					val.NewAddr(fmt.Sprintf("k%d", r.Intn(5))))
				if tb.Insert(tp, uint64(step), 0).Status == StatusNew {
					e, _ := tb.Get(tp)
					k := slot(tp.Fields[1])
					model[k] = append(model[k], e)
					live = append(live, tp)
				}
			} else {
				i := r.Intn(len(live))
				tp := live[i]
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				e, _ := tb.Get(tp)
				if gone, _ := tb.Delete(tp); gone {
					k := slot(tp.Fields[1])
					b := model[k]
					for j := range b {
						if b[j] == e {
							b[j] = b[len(b)-1]
							b = b[:len(b)-1]
							break
						}
					}
					model[k] = b
				} else {
					live = append(live, tp) // count > 1: still stored
				}
			}
			for k := 0; k < 5; k++ {
				key := val.NewAddr(fmt.Sprintf("k%d", k))
				want := model[slot(key)]
				var got []*Entry
				for b := idx.Bucket(val.HashValues([]val.Value{key})); ; {
					e := b.Next()
					if e == nil {
						break
					}
					got = append(got, e)
				}
				if len(got) != len(want) {
					t.Fatalf("step %d key %v: bucket len %d, model %d", step, key, len(got), len(want))
				}
				var wantMatch []*Entry
				for i, e := range want {
					if got[i] != e {
						t.Fatalf("step %d key %v: bucket[%d] = %v, model has %v", step, key, i, got[i].Fields, e.Fields)
					}
					if e.Fields[1].Equal(key) {
						wantMatch = append(wantMatch, e)
					}
				}
				got = idx.Match([]val.Value{key})
				if len(got) != len(wantMatch) {
					t.Fatalf("step %d key %v: Match len %d, model %d", step, key, len(got), len(wantMatch))
				}
				for i := range got {
					if got[i] != wantMatch[i] {
						t.Fatalf("step %d key %v: Match[%d] out of model order", step, key, i)
					}
				}
			}
		}
	}
}
