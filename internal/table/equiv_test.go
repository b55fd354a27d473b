package table

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"ndlog/internal/val"
)

// refTable is a deliberately naive reference model of Table keyed by
// canonical key strings (the seed's substrate). The hash-keyed Table
// must behave identically under the same operation stream; this is the
// randomized equivalence oracle for the storage rewrite.
type refTable struct {
	keys    []int
	ttl     float64
	maxSize int
	rows    map[string]*refRow
	order   []string // live primary keys, FIFO
}

type refRow struct {
	tuple   val.Tuple
	count   int
	stamp   uint64
	expires float64
}

func newRef(keys []int, ttl float64, maxSize int) *refTable {
	return &refTable{keys: keys, ttl: ttl, maxSize: maxSize, rows: map[string]*refRow{}}
}

func (r *refTable) pk(tp val.Tuple) string {
	if len(r.keys) == 0 {
		return tp.Key()
	}
	return tp.KeyOn(r.keys)
}

func (r *refTable) dropOrder(key string) {
	for i, k := range r.order {
		if k == key {
			r.order = append(r.order[:i], r.order[i+1:]...)
			return
		}
	}
}

func (r *refTable) insert(tp val.Tuple, stamp uint64, now float64) (Status, val.Tuple, []val.Tuple) {
	key := r.pk(tp)
	expires := -1.0
	if r.ttl >= 0 {
		expires = now + r.ttl
	}
	if row, ok := r.rows[key]; ok {
		if row.tuple.Equal(tp) {
			if r.ttl < 0 {
				row.count++
			}
			row.expires = expires
			return StatusDuplicate, val.Tuple{}, nil
		}
		old := row.tuple
		row.tuple = tp
		row.count = 1
		row.stamp = stamp
		row.expires = expires
		return StatusReplaced, old, nil
	}
	r.rows[key] = &refRow{tuple: tp, count: 1, stamp: stamp, expires: expires}
	r.order = append(r.order, key)
	var evicted []val.Tuple
	if r.maxSize > 0 {
		for len(r.rows) > r.maxSize && len(r.order) > 0 {
			k := r.order[0]
			r.order = r.order[1:]
			row := r.rows[k]
			delete(r.rows, k)
			evicted = append(evicted, row.tuple)
		}
	}
	return StatusNew, val.Tuple{}, evicted
}

func (r *refTable) delete(tp val.Tuple) (gone, existed bool) {
	key := r.pk(tp)
	row, ok := r.rows[key]
	if !ok || !row.tuple.Equal(tp) {
		return false, false
	}
	row.count--
	if row.count > 0 {
		return false, true
	}
	delete(r.rows, key)
	r.dropOrder(key)
	return true, true
}

func (r *refTable) deleteByKey(tp val.Tuple) (val.Tuple, bool) {
	key := r.pk(tp)
	row, ok := r.rows[key]
	if !ok {
		return val.Tuple{}, false
	}
	delete(r.rows, key)
	r.dropOrder(key)
	return row.tuple, true
}

func (r *refTable) expireBefore(now float64) []val.Tuple {
	if r.ttl < 0 {
		return nil
	}
	var out []val.Tuple
	for key, row := range r.rows {
		if row.expires >= 0 && row.expires <= now {
			out = append(out, row.tuple)
			delete(r.rows, key)
			r.dropOrder(key)
		}
	}
	return out
}

func (r *refTable) tuples() []val.Tuple {
	out := make([]val.Tuple, 0, len(r.rows))
	for _, row := range r.rows {
		out = append(out, row.tuple)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

func sortedKeys(ts []val.Tuple) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Key()
	}
	sort.Strings(out)
	return out
}

func sameTupleSet(a, b []val.Tuple) bool {
	ka, kb := sortedKeys(a), sortedKeys(b)
	if len(ka) != len(kb) {
		return false
	}
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	return true
}

// TestTableMatchesReferenceModel drives the hash-keyed Table and the
// string-keyed reference model with one random stream of inserts,
// deletes, key-deletes, and expiries, asserting identical statuses,
// displaced tuples, and table contents throughout. Index buckets here
// hold up to 18 rows (four values of the indexed column), and the
// "collide" variants truncate every hash to two bits, so row chains and
// index buckets also carry structurally distinct keys that only
// equality can tell apart.
func TestTableMatchesReferenceModel(t *testing.T) {
	type config struct {
		name    string
		keys    []int
		ttl     float64
		maxSize int
		post    func(uint64) uint64
	}
	configs := []config{
		{"keyed-hard", []int{0, 1}, -1, 0, nil},
		{"wholerow-hard", nil, -1, 0, nil},
		{"keyed-soft", []int{0, 1}, 5, 0, nil},
		{"keyed-bounded", []int{0, 1}, -1, 8, nil},
		{"wholerow-bounded-soft", nil, 3, 6, nil},
	}
	for _, cfg := range configs[:5] {
		cfg.name += "-collide"
		cfg.post = func(h uint64) uint64 { return h & 3 }
		configs = append(configs, cfg)
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(ci) + 7))
			tb := New("p", cfg.keys, cfg.ttl, cfg.maxSize)
			tb.post = cfg.post
			ref := newRef(cfg.keys, cfg.ttl, cfg.maxSize)
			idx := tb.EnsureIndex([]int{1})

			randTuple := func() val.Tuple {
				return val.NewTuple("p",
					val.NewAddr(fmt.Sprintf("n%d", r.Intn(6))),
					val.NewAddr(fmt.Sprintf("m%d", r.Intn(4))),
					val.NewInt(int64(r.Intn(3))))
			}
			now := 0.0
			for step := 0; step < 4000; step++ {
				now += r.Float64()
				tp := randTuple()
				switch r.Intn(10) {
				case 0, 1, 2, 3, 4, 5:
					st, repl, ev := ref.insert(tp, uint64(step), now)
					res := tb.Insert(tp, uint64(step), now)
					if res.Status != st {
						t.Fatalf("step %d: status %v != %v", step, res.Status, st)
					}
					if st == StatusReplaced && !res.Replaced.Equal(repl) {
						t.Fatalf("step %d: replaced %v != %v", step, res.Replaced, repl)
					}
					if len(res.Evicted) != len(ev) {
						t.Fatalf("step %d: evicted %v != %v", step, res.Evicted, ev)
					}
					for i := range ev {
						if !res.Evicted[i].Equal(ev[i]) {
							t.Fatalf("step %d: evicted[%d] %v != %v", step, i, res.Evicted[i], ev[i])
						}
					}
				case 6, 7:
					g1, e1 := ref.delete(tp)
					g2, e2 := tb.Delete(tp)
					if g1 != g2 || e1 != e2 {
						t.Fatalf("step %d: delete (%v,%v) != (%v,%v)", step, g2, e2, g1, e1)
					}
				case 8:
					o1, ok1 := ref.deleteByKey(tp)
					o2, ok2 := tb.DeleteByKey(tp)
					if ok1 != ok2 || (ok1 && !o1.Equal(o2)) {
						t.Fatalf("step %d: deleteByKey (%v,%v) != (%v,%v)", step, o2, ok2, o1, ok1)
					}
				case 9:
					e1 := ref.expireBefore(now)
					e2 := sweep(tb, now)
					if !sameTupleSet(e1, e2) {
						t.Fatalf("step %d: expired %v != %v", step, e2, e1)
					}
				}
				if tb.Len() != len(ref.rows) {
					t.Fatalf("step %d: len %d != %d", step, tb.Len(), len(ref.rows))
				}
				if step%97 == 0 {
					got, want := tb.Tuples(), ref.tuples()
					if !sameTupleSet(got, want) {
						t.Fatalf("step %d: contents diverged:\n got %v\nwant %v", step, got, want)
					}
					for _, tp := range want {
						if tb.Count(tp) != ref.rows[ref.pk(tp)].count {
							t.Fatalf("step %d: count(%v) = %d", step, tp, tb.Count(tp))
						}
						// Secondary index agrees with a full scan.
						n := 0
						for _, e := range idx.Match(tp.Fields[1:2]) {
							_ = e
							n++
						}
						m := 0
						for _, u := range want {
							if u.Fields[1].Equal(tp.Fields[1]) {
								m++
							}
						}
						if n != m {
							t.Fatalf("step %d: index match %d != scan %d for %v", step, n, m, tp)
						}
					}
				}
			}
		})
	}
}

// TestEvictionOrderBounded is the regression test for the seed's
// eviction-list leak: deleted keys stayed in Table.order forever and
// t.order = t.order[1:] pinned the backing array. After many
// delete+reinsert cycles under maxSize, the order list must stay
// proportional to the live row count.
func TestEvictionOrderBounded(t *testing.T) {
	const maxSize = 64
	tb := New("p", []int{0}, -1, maxSize)
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 20000; i++ {
		k := r.Intn(512)
		tp := val.NewTuple("p", val.NewAddr(fmt.Sprintf("k%d", k)), val.NewInt(int64(i)))
		if r.Intn(3) == 0 {
			tb.DeleteByKey(tp)
		} else {
			tb.Insert(tp, uint64(i), 0)
		}
	}
	if tb.Len() > maxSize {
		t.Fatalf("len %d exceeds maxSize %d", tb.Len(), maxSize)
	}
	if got := len(tb.order); got > 4*maxSize+128 {
		t.Fatalf("order list leaked: %d entries for %d live rows", got, tb.Len())
	}
	if tb.head > len(tb.order) {
		t.Fatalf("head %d beyond order %d", tb.head, len(tb.order))
	}
}
