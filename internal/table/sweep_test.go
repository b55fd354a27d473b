package table

import (
	"math"
	"testing"

	"ndlog/internal/val"
)

func beacon(id string) val.Tuple { return val.NewTuple("b", val.NewAddr(id)) }

// TestSweepSkipsTableWithNothingDue: below the earliest-expiry bound a
// sweep returns without scanning. The proof is a row whose expiry the test
// lowers behind the table's back: a scan would report it, the bound does
// not know about it, and the sweep stays silent until the bound is reached.
func TestSweepSkipsTableWithNothingDue(t *testing.T) {
	tb := New("b", []int{0}, 10, 0)
	if tb.ExpiryDue(1e18) {
		t.Fatal("an empty table has nothing due, ever")
	}
	e := tb.Insert(beacon("a"), 1, 0).Entry // expires at 10
	e.Expires = 1                           // not through SetExpires: the bound stays at 10
	if tb.ExpiryDue(5) || tb.Expired(5, nil) != nil {
		t.Fatal("sweep at t=5 scanned a table whose bound is t=10")
	}
	if got := tb.Expired(10, nil); len(got) != 1 || got[0] != e {
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
	if got := tb.Expired(12, nil); len(got) != 0 {
		t.Fatalf("refreshed row reported expired at t=12: %v", got)
	}
	if tb.ExpiryDue(14.9) || !tb.ExpiryDue(15) {
		t.Fatalf("after the scan the bound is the refreshed expiry, 15; got %v", tb.nextExpiry)
	}
	// SetExpires (migration's lifetime clamp) lowers the bound with the row.
	e, _ := tb.Get(beacon("a"))
	tb.SetExpires(e, 13)
	if !tb.ExpiryDue(13) {
		t.Fatal("SetExpires must pull the bound down")
	}
	if got := tb.ExpireBefore(13); len(got) != 1 || tb.Len() != 0 {
		t.Fatalf("clamped row must expire at 13: %v", got)
	}
	if !math.IsInf(tb.nextExpiry, 1) {
		t.Fatalf("emptied table: bound %v, want +Inf", tb.nextExpiry)
	}
}

// TestSweepSparedRowKeepsBoundHonest: a lapsed row the caller spares (a
// refresh is queued for it) stays stored, and stays under the bound — if
// the refresh never comes, the next sweep still finds it.
func TestSweepSparedRowKeepsBoundHonest(t *testing.T) {
	tb := New("b", []int{0}, 10, 0)
	tb.Insert(beacon("a"), 1, 0)
	tb.Insert(beacon("z"), 2, 0)
	spareA := func(tp val.Tuple) bool { return tp.Equal(beacon("a")) }
	got := tb.Expired(10, spareA)
	if len(got) != 1 || !got[0].Tuple.Equal(beacon("z")) {
		t.Fatalf("sweep must report z and spare a: %v", got)
	}
	if !tb.Contains(beacon("a")) || !tb.Contains(beacon("z")) {
		t.Fatal("Expired must not remove rows")
	}
	tb.DeleteByKey(beacon("z"))
	if !tb.ExpiryDue(10) {
		t.Fatal("the spared row lapsed at 10: the table is still due")
	}
	if got := tb.Expired(10, nil); len(got) != 1 || !got[0].Tuple.Equal(beacon("a")) {
		t.Fatalf("unspared, a must be reported: %v", got)
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
		got := tb.Expired(10, nil)
		if len(got) != len(ids) {
			t.Fatalf("expired %d rows, want %d", len(got), len(ids))
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Stamp > b.Stamp || (a.Stamp == b.Stamp && a.Tuple.Compare(b.Tuple) >= 0) {
				t.Fatalf("rows %d,%d out of order: %v@%d before %v@%d", i-1, i, a.Tuple, a.Stamp, b.Tuple, b.Stamp)
			}
		}
	}
}
