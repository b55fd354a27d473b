package table

import (
	"fmt"
	"math/rand"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/val"
)

// gkey builds a single-value group key from a string, standing in for
// the projected group columns the engine passes.
func gkey(s string) []val.Value { return []val.Value{val.NewString(s)} }

func TestGroupAggMinBasic(t *testing.T) {
	g := NewGroupAgg(ast.AggMin)
	ch := g.Add(gkey("k"), val.NewInt(5))
	if ch.HadOld || !ch.HasNew || ch.New.Int() != 5 || !ch.Changed() {
		t.Fatalf("first add change = %+v", ch)
	}
	ch = g.Add(gkey("k"), val.NewInt(7))
	if ch.Changed() {
		t.Errorf("min unchanged by larger value: %+v", ch)
	}
	ch = g.Add(gkey("k"), val.NewInt(2))
	if !ch.Changed() || ch.New.Int() != 2 || ch.Old.Int() != 5 {
		t.Errorf("min should drop to 2: %+v", ch)
	}
	// Removing a non-extreme value leaves the min alone.
	ch = g.Remove(gkey("k"), val.NewInt(7))
	if ch.Changed() {
		t.Errorf("removing non-min changed: %+v", ch)
	}
	// Removing the min rescans.
	ch = g.Remove(gkey("k"), val.NewInt(2))
	if !ch.Changed() || ch.New.Int() != 5 {
		t.Errorf("removing min: %+v", ch)
	}
	// Removing the last value empties the group.
	ch = g.Remove(gkey("k"), val.NewInt(5))
	if ch.HasNew || !ch.HadOld || !ch.Changed() {
		t.Errorf("removing last: %+v", ch)
	}
	if g.Groups() != 0 {
		t.Errorf("groups = %d", g.Groups())
	}
	if _, ok := g.Current(gkey("k")); ok {
		t.Error("Current on empty group should fail")
	}
}

func TestGroupAggMinDuplicates(t *testing.T) {
	g := NewGroupAgg(ast.AggMin)
	g.Add(gkey("k"), val.NewInt(3))
	g.Add(gkey("k"), val.NewInt(3))
	// One of two copies removed: min survives.
	ch := g.Remove(gkey("k"), val.NewInt(3))
	if ch.Changed() {
		t.Errorf("multiset remove changed min: %+v", ch)
	}
	v, ok := g.Current(gkey("k"))
	if !ok || v.Int() != 3 {
		t.Errorf("Current = %v, %v", v, ok)
	}
}

func TestGroupAggMax(t *testing.T) {
	g := NewGroupAgg(ast.AggMax)
	g.Add(gkey("k"), val.NewInt(1))
	g.Add(gkey("k"), val.NewInt(9))
	g.Add(gkey("k"), val.NewInt(4))
	if v, _ := g.Current(gkey("k")); v.Int() != 9 {
		t.Errorf("max = %v", v)
	}
	g.Remove(gkey("k"), val.NewInt(9))
	if v, _ := g.Current(gkey("k")); v.Int() != 4 {
		t.Errorf("max after remove = %v", v)
	}
}

func TestGroupAggCount(t *testing.T) {
	g := NewGroupAgg(ast.AggCount)
	g.Add(gkey("k"), val.NewAddr("a"))
	g.Add(gkey("k"), val.NewAddr("b"))
	g.Add(gkey("k"), val.NewAddr("a"))
	if v, _ := g.Current(gkey("k")); v.Int() != 3 {
		t.Errorf("count = %v", v)
	}
	g.Remove(gkey("k"), val.NewAddr("a"))
	if v, _ := g.Current(gkey("k")); v.Int() != 2 {
		t.Errorf("count after remove = %v", v)
	}
}

func TestGroupAggSum(t *testing.T) {
	g := NewGroupAgg(ast.AggSum)
	g.Add(gkey("k"), val.NewInt(3))
	g.Add(gkey("k"), val.NewInt(4))
	if v, _ := g.Current(gkey("k")); v.Int() != 7 {
		t.Errorf("int sum = %v", v)
	}
	g.Remove(gkey("k"), val.NewInt(3))
	if v, _ := g.Current(gkey("k")); v.Int() != 4 {
		t.Errorf("int sum after remove = %v", v)
	}
	// Mixing in a float switches the sum to float.
	g.Add(gkey("k"), val.NewFloat(0.5))
	if v, _ := g.Current(gkey("k")); v.Float() != 4.5 {
		t.Errorf("float sum = %v", v)
	}
}

func TestGroupAggSeparateGroups(t *testing.T) {
	g := NewGroupAgg(ast.AggMin)
	g.Add(gkey("x"), val.NewInt(1))
	g.Add(gkey("y"), val.NewInt(2))
	if g.Groups() != 2 {
		t.Errorf("groups = %d", g.Groups())
	}
	vx, _ := g.Current(gkey("x"))
	vy, _ := g.Current(gkey("y"))
	if vx.Int() != 1 || vy.Int() != 2 {
		t.Errorf("groups cross-talk: x=%v y=%v", vx, vy)
	}
}

func TestGroupAggRemoveAbsent(t *testing.T) {
	g := NewGroupAgg(ast.AggMin)
	ch := g.Remove(gkey("nope"), val.NewInt(1))
	if ch.Changed() || ch.HadOld || ch.HasNew {
		t.Errorf("remove from missing group: %+v", ch)
	}
	g.Add(gkey("k"), val.NewInt(5))
	ch = g.Remove(gkey("k"), val.NewInt(99)) // value not in group
	if ch.Changed() {
		t.Errorf("remove of absent value changed: %+v", ch)
	}
}

// TestGroupAggMatchesRecompute is a property test: a random interleaving
// of adds and removes must always leave the incremental aggregate equal
// to recomputing from the surviving multiset. The variants cover the
// flat multiset at both ends — a few distinct values, and groups that
// grow to ~100 distinct values and drain back to empty — and several
// groups whose key hashes are truncated into one collision chain
// (including the empty-shell sweep when most of them drain). The churn
// variants spread over 300 groups, so the group and value slabs cross
// many chunk boundaries, drained groups are swept, and their slots —
// values and key storage — are taken by groups made after the sweep;
// each checks that a sweep freed slots.
func TestGroupAggMatchesRecompute(t *testing.T) {
	variants := []struct {
		name    string
		values  int // distinct values drawn
		groups  int
		collide bool
	}{
		{"small", 40, 1, false},
		{"wide", 400, 1, false},
		{"chained", 40, 6, true},
		{"chained-wide", 400, 80, true},
		{"churn", 40, 300, false},
		{"churn-chained", 40, 300, true},
	}
	for _, vr := range variants {
		for _, fn := range []ast.AggFunc{ast.AggMin, ast.AggMax, ast.AggCount, ast.AggSum} {
			r := rand.New(rand.NewSource(int64(fn) + 99))
			g := NewGroupAgg(fn)
			if vr.collide {
				g.post = func(h uint64) uint64 { return h & 1 }
			}
			live := make([]map[int64]int, vr.groups) // per group: value -> multiplicity
			for i := range live {
				live[i] = map[int64]int{}
			}
			swept := false
			for step := 0; step < 6000; step++ {
				swept = swept || g.slab.free != noSlot
				gi := r.Intn(vr.groups)
				key, lv := gkey(fmt.Sprintf("k%d", gi)), live[gi]
				// Alternate growing and draining phases.
				grow := (step/1500)%2 == 0
				add := (r.Intn(10) < 8) == grow || len(lv) == 0
				if vr.groups >= 300 && !grow {
					add = false // let groups drain to empty shells
				}
				if add {
					v := int64(r.Intn(vr.values))
					g.Add(key, val.NewInt(v))
					lv[v]++
				} else if r.Intn(10) == 0 {
					g.Remove(key, val.NewInt(1000)) // absent
				} else {
					for v := range lv {
						g.Remove(key, val.NewInt(v))
						lv[v]--
						if lv[v] == 0 {
							delete(lv, v)
						}
						break
					}
				}
				checkAgainstRecompute(t, vr.name, fn, g, key, lv)
			}
			nonEmpty := 0
			for gi, lv := range live {
				checkAgainstRecompute(t, vr.name, fn, g, gkey(fmt.Sprintf("k%d", gi)), lv)
				if len(lv) > 0 {
					nonEmpty++
				}
			}
			if g.Groups() != nonEmpty {
				t.Fatalf("%s/%v: Groups() = %d, model has %d", vr.name, fn, g.Groups(), nonEmpty)
			}
			if vr.groups >= 300 && !swept {
				t.Errorf("%s/%v: no sweep freed a group slot", vr.name, fn)
			}
		}
	}
}

func checkAgainstRecompute(t *testing.T, name string, fn ast.AggFunc, g *GroupAgg, key []val.Value, live map[int64]int) {
	t.Helper()
	got, ok := g.Current(key)
	if len(live) == 0 {
		if ok {
			t.Fatalf("%s/%v: aggregate %v on empty multiset", name, fn, got)
		}
		return
	}
	if !ok {
		t.Fatalf("%s/%v: no aggregate for non-empty multiset", name, fn)
	}
	var want int64
	first := true
	var n, sum int64
	for v, c := range live {
		n += int64(c)
		sum += v * int64(c)
		if first {
			want = v
			first = false
			continue
		}
		if (fn == ast.AggMin && v < want) || (fn == ast.AggMax && v > want) {
			want = v
		}
	}
	switch fn {
	case ast.AggCount:
		want = n
	case ast.AggSum:
		want = sum
	}
	if got.Int() != want {
		t.Fatalf("%s/%v: incremental %d != recomputed %d (multiset %v)", name, fn, got.Int(), want, live)
	}
}

// TestGroupAggSweepKeepsLiveGroups drains most groups of a collision
// chain so the empty-shell sweep runs, and checks it unlinks exactly
// the empty shells: live groups keep their aggregates, drained ones are
// gone, and a drained key can be used again.
func TestGroupAggSweepKeepsLiveGroups(t *testing.T) {
	g := NewGroupAgg(ast.AggMin)
	g.post = func(h uint64) uint64 { return h & 1 }
	const groups = 200
	key := func(i int) []val.Value { return gkey(fmt.Sprintf("g%d", i)) }
	for i := 0; i < groups; i++ {
		g.Add(key(i), val.NewInt(int64(i)))
		g.Add(key(i), val.NewInt(int64(i+1000)))
	}
	for i := 0; i < groups; i++ {
		if i%4 != 0 { // drain three groups in four
			g.Remove(key(i), val.NewInt(int64(i)))
			g.Remove(key(i), val.NewInt(int64(i+1000)))
		}
	}
	if g.empties > 64 && g.empties > g.n {
		t.Fatalf("sweep did not run: %d empty shells beside %d live groups", g.empties, g.n)
	}
	if g.Groups() != groups/4 {
		t.Fatalf("Groups() = %d, want %d", g.Groups(), groups/4)
	}
	for i := 0; i < groups; i++ {
		cur, ok := g.Current(key(i))
		if live := i%4 == 0; ok != live || (live && cur.Int() != int64(i)) {
			t.Fatalf("group %d after sweep: current %v ok=%v", i, cur, ok)
		}
	}
	if ch := g.Add(key(1), val.NewInt(7)); ch.HadOld || !ch.HasNew || ch.New.Int() != 7 {
		t.Fatalf("re-adding to a swept group: %+v", ch)
	}
}
