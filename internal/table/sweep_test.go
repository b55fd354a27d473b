package table

import (
	"fmt"
	"math"
	"testing"

	"ndlog/internal/val"
)

func beacon(id string) val.Tuple { return val.NewTuple("b", val.NewAddr(id)) }

// sweep expires tb's lapsed rows at now the way a node's soft-state
// sweep does (engine Node.ExpireSoftState): Expired, then DeleteByKey
// for each row it reports. It returns the removed tuples.
func sweep(tb *Table, now float64) []val.Tuple {
	var out []val.Tuple
	for _, tp := range tb.Expired(now) {
		tb.DeleteByKey(tp)
		out = append(out, tp)
	}
	return out
}

// TestSweepSkipsTableWithNothingDue: below the earliest-expiry bound a
// sweep returns without scanning. The proof is a row whose expiry the test
// lowers behind the table's back: a scan would report it, the bound does
// not know about it, and the sweep stays silent until the bound is reached.
func TestSweepSkipsTableWithNothingDue(t *testing.T) {
	tb := New("b", []int{0}, 10, 0)
	if tb.ExpiryDue(1e18) {
		t.Fatal("an empty table has nothing due, ever")
	}
	e := tb.Insert(beacon("a"), 1, 0).Row.Entry() // expires at 10
	e.Expires = 1                                 // behind the table's back: the bound stays at 10
	if tb.ExpiryDue(5) || tb.Expired(5) != nil {
		t.Fatal("sweep at t=5 scanned a table whose bound is t=10")
	}
	if got := tb.Expired(10); len(got) != 1 || !got[0].Equal(beacon("a")) {
		t.Fatalf("sweep at the bound must scan: got %v", got)
	}
	if hard := New("h", nil, -1, 0); hard.ExpiryDue(1e18) {
		t.Fatal("hard state is never due")
	}
}

// TestSweepBoundFollowsRefresh: a refresh moves the row's expiry out; the
// bound is only a lower bound, so the next due sweep finds nothing and
// raises it to the refreshed expiry, after which sweeps skip again.
func TestSweepBoundFollowsRefresh(t *testing.T) {
	tb := New("b", []int{0}, 10, 0)
	tb.Insert(beacon("a"), 1, 0) // expires at 10
	tb.Insert(beacon("a"), 2, 5) // refreshed: expires at 15
	if !tb.ExpiryDue(12) {
		t.Fatal("the bound may lag a refresh but must not run ahead of it")
	}
	if got := tb.Expired(12); len(got) != 0 {
		t.Fatalf("refreshed row reported expired at t=12: %v", got)
	}
	if tb.ExpiryDue(14.9) || !tb.ExpiryDue(15) {
		t.Fatalf("after the scan the bound is the refreshed expiry, 15; got %v", tb.nextExpiry)
	}
	// A row stored with an earlier deadline (one inherited from its
	// support) lowers the bound with it.
	tb.InsertUntil(beacon("z"), 3, 13)
	if !tb.ExpiryDue(13) {
		t.Fatal("an earlier deadline must pull the bound down")
	}
	if got := sweep(tb, 13); len(got) != 1 || !got[0].Equal(beacon("z")) {
		t.Fatalf("the row stored until 13 must expire at 13: %v", got)
	}
	if got := sweep(tb, 15); len(got) != 1 || tb.Len() != 0 {
		t.Fatalf("refreshed row must expire at 15: %v", got)
	}
	if !math.IsInf(tb.nextExpiry, 1) {
		t.Fatalf("emptied table: bound %v, want +Inf", tb.nextExpiry)
	}
}

// TestSweepOrderIsStampOrder: lapsed rows come back ordered by the stamp
// they were stored with (ties by tuple order), not by map iteration.
func TestSweepOrderIsStampOrder(t *testing.T) {
	for _, post := range []func(uint64) uint64{nil, func(h uint64) uint64 { return h & 1 }} {
		tb := New("b", []int{0}, 10, 0)
		tb.post = post
		ids := []string{"k", "c", "q", "a", "x", "f", "m", "b", "t", "d"}
		for i, id := range ids {
			stamp := uint64(100 - i) // reverse arrival order
			if i >= 8 {
				stamp = 7 // two rows share a stamp, as semi-naive rounds do
			}
			tb.Insert(beacon(id), stamp, 0)
		}
		got := tb.Expired(10)
		if len(got) != len(ids) {
			t.Fatalf("expired %d rows, want %d", len(got), len(ids))
		}
		for i := 1; i < len(got); i++ {
			a, _ := tb.Get(got[i-1])
			b, _ := tb.Get(got[i])
			if a.Stamp > b.Stamp || (a.Stamp == b.Stamp && got[i-1].Compare(got[i]) >= 0) {
				t.Fatalf("rows %d,%d out of order: %v@%d before %v@%d", i-1, i, got[i-1], a.Stamp, got[i], b.Stamp)
			}
		}
	}
}

// TestInsertUntilRefresh pins the refresh rule: a duplicate of a row with
// a finite deadline keeps the later deadline and never counts; a hard
// duplicate makes it hard; a soft duplicate of a hard row changes
// nothing.
func TestInsertUntilRefresh(t *testing.T) {
	tb := New("b", []int{0}, -1, 0)
	e := tb.InsertUntil(beacon("a"), 1, 10).Row.Entry()
	for _, step := range []struct {
		expires  float64
		extended bool
		want     float64
		count    int32
	}{
		{8, false, 10, 1},  // earlier: nothing moves
		{12, true, 12, 1},  // later: extended, still one derivation
		{-1, true, -1, 1},  // hard support: the row is hard now
		{-1, false, -1, 2}, // hard duplicate of a hard row counts
		{20, false, -1, 2}, // soft duplicate of a hard row: no change
	} {
		res := tb.InsertUntil(beacon("a"), 2, step.expires)
		if res.Status != StatusDuplicate || res.Extended != step.extended || e.Expires != step.want || e.Count != step.count {
			t.Fatalf("insert until %v: %v extended=%v expires=%v count=%d, want extended=%v expires=%v count=%d",
				step.expires, res.Status, res.Extended, e.Expires, e.Count, step.extended, step.want, step.count)
		}
	}
	if tb.ExpiryDue(1e18) && len(tb.Expired(1e18)) != 0 {
		t.Fatal("a row made hard must never lapse")
	}
}

// TestCatalogTablesInNameOrder: the sweep's table list stays in name
// order as tables appear, and a list taken before a new table appears
// is left as it was.
func TestCatalogTablesInNameOrder(t *testing.T) {
	c := NewCatalog()
	c.Get("m")
	c.Declare("b", nil, 5, 0)
	before := c.Tables()
	c.Get("z")
	c.Get("a")
	var got []string
	for _, tb := range c.Tables() {
		got = append(got, tb.Name())
	}
	if fmt.Sprint(got) != "[a b m z]" {
		t.Errorf("tables %v, want [a b m z]", got)
	}
	if len(before) != 2 || before[0].Name() != "b" || before[1].Name() != "m" {
		t.Errorf("a list taken earlier changed under its holder: %v %v", before[0].Name(), before[1].Name())
	}
}
