package table

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"ndlog/internal/val"
)

// TestLocateRoundTrips pins the slab's chunk schedule: slots fill the
// chunks in order with no gap, and each chunk is as long as grow makes
// it.
func TestLocateRoundTrips(t *testing.T) {
	var sl slab[uint32]
	for s := uint32(0); s < 5000; s++ {
		if got := sl.grow(); got != s {
			t.Fatalf("grow handed out %d, want %d", got, s)
		}
		k, off := locate(s)
		if k >= len(sl.chunks) || int(off) >= len(sl.chunks[k]) {
			t.Fatalf("slot %d at chunk %d offset %d, past the %d chunks grown", s, k, off, len(sl.chunks))
		}
		*sl.at(s) = s
	}
	next := uint32(0)
	for k, c := range sl.chunks {
		for off, v := range c {
			if next == sl.n {
				break
			}
			if v != next {
				t.Fatalf("chunk %d offset %d holds %d, want slot %d", k, off, v, next)
			}
			next++
		}
	}
}

// TestSlabRetentionBounded: a table that held 10 000 rows and lost them
// all keeps no slab, row map or index storage — at most a few hundred
// bytes of its own bookkeeping, where the rows took about a megabyte.
func TestSlabRetentionBounded(t *testing.T) {
	const rows, bound = 10000, 4 << 10
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tuples := func() []val.Tuple {
		out := make([]val.Tuple, rows)
		for i := range out {
			out[i] = val.NewTuple("p", val.NewInt(int64(i)), val.NewInt(int64(i%97)))
		}
		return out
	}
	tb := New("p", []int{0}, -1, 0)
	tb.EnsureIndex([]int{1})
	before := heap()
	ts := tuples()
	for i, tp := range ts {
		tb.Insert(tp, uint64(i), 0)
	}
	full := heap()
	for _, tp := range ts {
		if gone, _ := tb.Delete(tp); !gone {
			t.Fatalf("delete of %v left it stored", tp)
		}
	}
	ts = nil
	after := heap()
	if tb.Len() != 0 || tb.ents.chunks != nil || tb.rows != nil || tb.idxList[0].m != nil || tb.idxList[0].links.chunks != nil {
		t.Fatalf("emptied table keeps storage: %d rows, %d chunks, row map %v, index map %v",
			tb.Len(), len(tb.ents.chunks), tb.rows != nil, tb.idxList[0].m != nil)
	}
	if kept := int64(after) - int64(before); kept > bound {
		t.Errorf("emptied table keeps %d bytes (it held %d), want at most %d", kept, full-before, bound)
	}
	runtime.KeepAlive(tb)
}

// TestInsertAllocBudget: storing 4 096 distinct rows in a fresh table
// allocates its slab's chunks — four a doubling — the slices that list
// them, and what the row map allocates to hold 4 096 keys, and nothing
// per row.
func TestInsertAllocBudget(t *testing.T) {
	const rows = 4096
	ts := make([]val.Tuple, rows)
	for i := range ts {
		ts[i] = val.NewTuple("link", val.NewAddr("a"), val.NewInt(int64(i)), val.NewInt(1))
	}
	mapAllocs := testing.AllocsPerRun(5, func() {
		m := map[uint64]uint32{}
		for i := range ts {
			m[ts[i].HashOn([]int{0, 1})] = uint32(i)
		}
	})
	var chunks int
	got := testing.AllocsPerRun(5, func() {
		tb := New("link", []int{0, 1}, -1, 0)
		for i, tp := range ts {
			tb.Insert(tp, uint64(i), 0)
		}
		chunks = len(tb.ents.chunks)
	})
	// The chunk list grows by doubling: one allocation per doubling of
	// the chunk count. New makes the table and copies its key columns.
	lists := 0
	for c := 1; c < 2*chunks; c *= 2 {
		lists++
	}
	if budget := mapAllocs + float64(chunks+lists+2); got > budget {
		t.Errorf("%d inserts allocated %.0f objects, budget %.0f (%d chunks, %.0f for the row map)",
			rows, got, budget, chunks, mapAllocs)
	}
}

// TestScanOrderFollowsHistory: Scan walks slots, not the row map, so two
// tables with one insert and delete history — freed slots reused, a trim
// included — scan their rows in one order, run after run.
func TestScanOrderFollowsHistory(t *testing.T) {
	scan := func(post func(uint64) uint64) []string {
		r := rand.New(rand.NewSource(3))
		tb := New("p", []int{0}, -1, 0)
		tb.post = post
		trimmed := false
		for step := 0; step < 3000; step++ {
			slots := tb.ents.n
			tp := val.NewTuple("p", val.NewInt(int64(r.Intn(400))), val.NewInt(int64(step)))
			// Grow, then shrink far enough that the table trims.
			if (step/1000)%2 == 0 == (r.Intn(10) < 8) {
				tb.Insert(tp, uint64(step), 0)
			} else {
				tb.DeleteByKey(tp)
			}
			trimmed = trimmed || tb.ents.n < slots
		}
		if !trimmed {
			t.Fatal("the history never trimmed the table")
		}
		var out []string
		tb.Scan(func(e *Entry) bool {
			out = append(out, tb.Tuple(e).Key())
			return true
		})
		return out
	}
	want := scan(nil)
	for run := 0; run < 3; run++ {
		for _, post := range []func(uint64) uint64{nil, func(h uint64) uint64 { return h & 3 }} {
			if got := scan(post); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("run %d: scan order differs between tables with one history:\n%v\n%v", run, got, want)
			}
		}
	}
}
