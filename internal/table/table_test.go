package table

import (
	"testing"

	"ndlog/internal/val"
)

func link(s, d string, c int64) val.Tuple {
	return val.NewTuple("link", val.NewAddr(s), val.NewAddr(d), val.NewInt(c))
}

func TestInsertStatuses(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	r := tb.Insert(link("a", "b", 5), 1, 0)
	if r.Status != StatusNew {
		t.Fatalf("first insert status = %v", r.Status)
	}
	r = tb.Insert(link("a", "b", 5), 2, 0)
	if r.Status != StatusDuplicate {
		t.Fatalf("dup insert status = %v", r.Status)
	}
	if tb.Count(link("a", "b", 5)) != 2 {
		t.Errorf("count = %d, want 2", tb.Count(link("a", "b", 5)))
	}
	// Same PK, different cost: replaced.
	r = tb.Insert(link("a", "b", 9), 3, 0)
	if r.Status != StatusReplaced {
		t.Fatalf("replace status = %v", r.Status)
	}
	if !r.Replaced.Equal(link("a", "b", 5)) {
		t.Errorf("replaced tuple = %v", r.Replaced)
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
	if !tb.Contains(link("a", "b", 9)) || tb.Contains(link("a", "b", 5)) {
		t.Error("content after replace wrong")
	}
}

// TestReplaceResetsRowBookkeeping: a key replacement reuses the row, and
// the row starts over as the new tuple's — in particular not advertised:
// the displaced tuple's Adv flag would otherwise make an aggregate
// selection take a never-advertised replacement for advertised.
func TestReplaceResetsRowBookkeeping(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	tb.Insert(link("a", "b", 5), 1, 0)
	first := tb.Insert(link("a", "b", 5), 2, 0).Row.Entry() // count 2
	first.Adv = true
	r := tb.Insert(link("a", "b", 9), 7, 0)
	if r.Status != StatusReplaced || r.Row.Entry() != first {
		t.Fatalf("replace: status %v, row reused %v", r.Status, r.Row.Entry() == first)
	}
	if e := r.Row.Entry(); e.Adv || e.Count != 1 || e.Stamp != 7 {
		t.Errorf("replaced row: Adv=%v Count=%d Stamp=%d, want false 1 7", e.Adv, e.Count, e.Stamp)
	}
}

func TestStatusString(t *testing.T) {
	if StatusNew.String() != "new" || StatusDuplicate.String() != "duplicate" ||
		StatusReplaced.String() != "replaced" {
		t.Error("status names wrong")
	}
	if Status(9).String() == "" {
		t.Error("unknown status should render")
	}
}

func TestDeleteCountAlgorithm(t *testing.T) {
	tb := New("link", nil, -1, 0)
	tp := link("a", "b", 1)
	tb.Insert(tp, 1, 0)
	tb.Insert(tp, 2, 0) // count = 2

	gone, existed := tb.Delete(tp)
	if gone || !existed {
		t.Fatalf("first delete: gone=%v existed=%v", gone, existed)
	}
	if !tb.Contains(tp) {
		t.Fatal("tuple should survive while count > 0")
	}
	gone, existed = tb.Delete(tp)
	if !gone || !existed {
		t.Fatalf("second delete: gone=%v existed=%v", gone, existed)
	}
	if tb.Contains(tp) {
		t.Fatal("tuple should be gone at count 0")
	}
	gone, existed = tb.Delete(tp)
	if gone || existed {
		t.Fatalf("delete of absent: gone=%v existed=%v", gone, existed)
	}
}

func TestDeleteWrongFieldsSamePK(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	tb.Insert(link("a", "b", 5), 1, 0)
	// Delete with matching PK but different cost must not remove.
	gone, existed := tb.Delete(link("a", "b", 7))
	if gone || existed {
		t.Error("delete with different fields should be a no-op")
	}
	if !tb.Contains(link("a", "b", 5)) {
		t.Error("original tuple lost")
	}
}

func TestDeleteByKey(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	tb.Insert(link("a", "b", 5), 1, 0)
	old, ok := tb.DeleteByKey(link("a", "b", 999))
	if !ok || !old.Equal(link("a", "b", 5)) {
		t.Errorf("DeleteByKey = %v, %v", old, ok)
	}
	if _, ok := tb.DeleteByKey(link("a", "b", 0)); ok {
		t.Error("DeleteByKey on empty should fail")
	}
}

func TestSecondaryIndex(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	idx := tb.EnsureIndex([]int{1}) // index on destination
	tb.Insert(link("a", "b", 1), 1, 0)
	tb.Insert(link("c", "b", 2), 2, 0)
	tb.Insert(link("a", "d", 3), 3, 0)

	b := []val.Value{val.NewAddr("b")}
	hits := idx.Match(b)
	if len(hits) != 2 {
		t.Fatalf("Match(b) = %d entries", len(hits))
	}
	// Index must follow deletes.
	tb.Delete(link("a", "b", 1))
	if len(idx.Match(b)) != 1 {
		t.Errorf("Match(b) after delete = %d", len(idx.Match(b)))
	}
	// Index must follow replacement.
	tb.Insert(link("c", "b", 9), 4, 0)
	hits = idx.Match(b)
	if len(hits) != 1 || hits[0].Fields[2].Int() != 9 {
		t.Errorf("Match(b) after replace = %v", hits)
	}
	// Building the index after rows exist must backfill.
	idx2 := tb.EnsureIndex([]int{0})
	if len(idx2.Match([]val.Value{val.NewAddr("a")})) != 1 {
		t.Errorf("backfilled index wrong: %v", idx2.Match([]val.Value{val.NewAddr("a")}))
	}
	// EnsureIndex twice returns the same handle.
	if tb.EnsureIndex([]int{0}) != idx2 {
		t.Error("EnsureIndex not idempotent")
	}
}

// TestIndexMatchVerifies checks that Match filters structurally, not
// just by hash: probing for values that are absent returns nothing, and
// the raw Bucket of an absent hash is empty.
func TestIndexMatchVerifies(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	idx := tb.EnsureIndex([]int{1})
	tb.Insert(link("a", "b", 1), 1, 0)
	if got := idx.Match([]val.Value{val.NewAddr("zzz")}); len(got) != 0 {
		t.Errorf("Match(zzz) = %v", got)
	}
	// An addr and a string with the same text are different values.
	if got := idx.Match([]val.Value{val.NewString("b")}); len(got) != 0 {
		t.Errorf("Match(string b) = %v", got)
	}
	if b := idx.Bucket(val.HashValues([]val.Value{val.NewAddr("zzz")})); b.Next() != nil {
		t.Error("Bucket(zzz) is not empty")
	}
	// A probe of the wrong width matches nothing.
	if got := idx.Match([]val.Value{val.NewAddr("b"), val.NewInt(1)}); len(got) != 0 {
		t.Errorf("Match(wrong arity) = %v", got)
	}
}

func TestTTLExpiry(t *testing.T) {
	tb := New("link", []int{0, 1}, 10, 0)
	tb.Insert(link("a", "b", 1), 1, 100)
	tb.Insert(link("a", "c", 1), 2, 105)

	if got := sweep(tb, 105); len(got) != 0 {
		t.Errorf("nothing should expire at 105: %v", got)
	}
	got := sweep(tb, 110)
	if len(got) != 1 || !got[0].Equal(link("a", "b", 1)) {
		t.Errorf("expired = %v", got)
	}
	if tb.Len() != 1 {
		t.Errorf("len = %d", tb.Len())
	}
	// Re-insertion refreshes TTL.
	tb.Insert(link("a", "c", 1), 3, 114)
	if got := sweep(tb, 115); len(got) != 0 {
		t.Errorf("refreshed tuple expired: %v", got)
	}
	if got := sweep(tb, 124.5); len(got) != 1 {
		t.Errorf("refreshed tuple should expire at 124: %v", got)
	}
	// Hard state never expires.
	hard := New("link", nil, -1, 0)
	hard.Insert(link("a", "b", 1), 1, 0)
	if got := sweep(hard, 1e18); got != nil {
		t.Errorf("hard state expired: %v", got)
	}
}

func TestMaxSizeEviction(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 2)
	tb.Insert(link("a", "b", 1), 1, 0)
	tb.Insert(link("a", "c", 2), 2, 0)
	r := tb.Insert(link("a", "d", 3), 3, 0)
	if len(r.Evicted) != 1 || !r.Evicted[0].Equal(link("a", "b", 1)) {
		t.Errorf("evicted = %v", r.Evicted)
	}
	if tb.Len() != 2 {
		t.Errorf("len = %d", tb.Len())
	}
	if tb.Contains(link("a", "b", 1)) {
		t.Error("evicted tuple still present")
	}
}

func TestTuplesDeterministicOrder(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	tb.Insert(link("c", "x", 1), 1, 0)
	tb.Insert(link("a", "x", 1), 2, 0)
	tb.Insert(link("b", "x", 1), 3, 0)
	ts := tb.Tuples()
	if len(ts) != 3 || ts[0].Loc() != "a" || ts[1].Loc() != "b" || ts[2].Loc() != "c" {
		t.Errorf("Tuples order = %v", ts)
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := New("link", []int{0, 1}, -1, 0)
	tb.Insert(link("a", "b", 1), 1, 0)
	tb.Insert(link("a", "c", 1), 2, 0)
	n := 0
	tb.Scan(func(*Entry) bool { n++; return false })
	if n != 1 {
		t.Errorf("scan visited %d, want 1", n)
	}
}

func TestStampStored(t *testing.T) {
	tb := New("link", nil, -1, 0)
	tb.Insert(link("a", "b", 1), 42, 0)
	e, ok := tb.Get(link("a", "b", 1))
	if !ok || e.Stamp != 42 {
		t.Errorf("stamp = %v, %v", e, ok)
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	tl := c.Declare("link", []int{0, 1}, -1, 0)
	if c.Declare("link", nil, 5, 0) != tl {
		t.Error("redeclare should return existing table")
	}
	if !c.Has("link") || c.Has("path") {
		t.Error("Has wrong")
	}
	p := c.Get("path") // implicit declaration
	if p == nil || !c.Has("path") {
		t.Error("Get should create default table")
	}
	if p.TTL() >= 0 {
		t.Error("default table should be hard state")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "link" || names[1] != "path" {
		t.Errorf("Names = %v", names)
	}
	// Catalog-wide expiry, table by table as a node sweeps.
	soft := c.Declare("soft", nil, 1, 0)
	soft.Insert(link("a", "b", 1), 1, 0)
	var dead []val.Tuple
	for _, tb := range c.Tables() {
		dead = append(dead, sweep(tb, 10)...)
	}
	if len(dead) != 1 {
		t.Errorf("catalog expiry = %v", dead)
	}
}

func TestWholeRowKeyTable(t *testing.T) {
	tb := New("link", nil, -1, 0)
	tb.Insert(link("a", "b", 1), 1, 0)
	tb.Insert(link("a", "b", 2), 2, 0) // different row, both live
	if tb.Len() != 2 {
		t.Errorf("len = %d, want 2 (whole-row key)", tb.Len())
	}
}
