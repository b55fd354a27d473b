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
// equality can tell apart. The "wide" variants draw from 4 500 rows and
// alternate phases that mostly insert with phases that mostly delete,
// so the slab crosses dozens of chunk boundaries, refills freed slots
// and trims its end; each checks that it did.
func TestTableMatchesReferenceModel(t *testing.T) {
	type config struct {
		name    string
		keys    []int
		ttl     float64
		maxSize int
		wide    bool
		post    func(uint64) uint64
	}
	configs := []config{
		{"keyed-hard", []int{0, 1}, -1, 0, false, nil},
		{"wholerow-hard", nil, -1, 0, false, nil},
		{"keyed-soft", []int{0, 1}, 5, 0, false, nil},
		{"keyed-bounded", []int{0, 1}, -1, 8, false, nil},
		{"wholerow-bounded-soft", nil, 3, 6, false, nil},
		{"keyed-hard-wide", []int{0, 1}, -1, 0, true, nil},
		{"wholerow-soft-wide", nil, 15, 0, true, nil},
	}
	for _, cfg := range configs[:7] {
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

			ns, ms, steps, check := 6, 4, 4000, 97
			if cfg.wide {
				ns, ms, steps, check = 150, 10, 24000, 1999
				if cfg.post != nil {
					ns, steps = 50, 16000 // one chain: every probe walks it
				}
			}
			randTuple := func() val.Tuple {
				return val.NewTuple("p",
					val.NewAddr(fmt.Sprintf("n%d", r.Intn(ns))),
					val.NewAddr(fmt.Sprintf("m%d", r.Intn(ms))),
					val.NewInt(int64(r.Intn(3))))
			}
			now := 0.0
			inserts, reused, trimmed := 0, false, false
			for step := 0; step < steps; step++ {
				if cfg.wide {
					now += r.Float64() / 100 // lifetimes span many steps
				} else {
					now += r.Float64()
				}
				tp := randTuple()
				op := r.Intn(10)
				if cfg.wide && (step/4000)%2 == 1 {
					op = []int{0, 6, 8, 8, 8, 8, 8, 8, 8, 9}[op] // mostly deletes
				}
				slots := tb.ents.n
				switch op {
				case 0, 1, 2, 3, 4, 5:
					st, repl, ev := ref.insert(tp, uint64(step), now)
					res := tb.Insert(tp, uint64(step), now)
					if st == StatusNew {
						inserts++
						reused = reused || tb.ents.n == slots && slots > 0
					}
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
				trimmed = trimmed || tb.ents.n < slots
				if tb.Len() != len(ref.rows) {
					t.Fatalf("step %d: len %d != %d", step, tb.Len(), len(ref.rows))
				}
				if step%check == 0 {
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
			if cfg.wide && (len(tb.ents.chunks) < 20 || !reused || !trimmed) {
				t.Errorf("%d new rows: %d chunks, refilled a slot %v, trimmed %v; want dozens of chunks, both",
					inserts, len(tb.ents.chunks), reused, trimmed)
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
	if got := len(tb.bound.order); got > 4*maxSize+128 {
		t.Fatalf("order list leaked: %d entries for %d live rows", got, tb.Len())
	}
	if tb.bound.head > len(tb.bound.order) {
		t.Fatalf("head %d beyond order %d", tb.bound.head, len(tb.bound.order))
	}
}

// FuzzTableOps drives a Table and the reference model with one stream of
// operations decoded from the input, two bytes each: an operation —
// insert, delete, delete by key, expire — and a row out of 96, under a
// configuration the first byte picks (key, lifetime, bound, colliding
// hashes). Statuses, displaced and evicted tuples, expiries and contents
// must agree at every step, and an index must find what a scan finds.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 2, 1, 3, 3, 0, 1})
	f.Add([]byte{5, 0, 7, 0, 7, 1, 7, 2, 8, 3, 0})
	f.Add([]byte{14, 0, 1, 0, 9, 0, 40, 1, 9, 2, 33, 3, 200})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) == 0 {
			return
		}
		cfg := ops[0]
		keys := []int{0, 1}
		if cfg&1 != 0 {
			keys = nil
		}
		ttl := -1.0
		if cfg&2 != 0 {
			ttl = 3
		}
		maxSize := 0
		if cfg&4 != 0 {
			maxSize = 8
		}
		tb := New("p", keys, ttl, maxSize)
		if cfg&8 != 0 {
			tb.post = func(h uint64) uint64 { return h & 3 }
		}
		ref := newRef(keys, ttl, maxSize)
		idx := tb.EnsureIndex([]int{1})
		now := 0.0
		for i := 1; i+1 < len(ops); i += 2 {
			op, row := ops[i]%4, int(ops[i+1])%96
			tp := val.NewTuple("p",
				val.NewAddr(fmt.Sprintf("n%d", row%8)),
				val.NewAddr(fmt.Sprintf("m%d", row/8%4)),
				val.NewInt(int64(row/32)))
			now += float64(ops[i]>>2) / 16
			switch op {
			case 0:
				st, repl, ev := ref.insert(tp, uint64(i), now)
				res := tb.Insert(tp, uint64(i), now)
				if res.Status != st || st == StatusReplaced && !res.Replaced.Equal(repl) || !sameTupleSet(res.Evicted, ev) {
					t.Fatalf("op %d: insert %v: %v %v %v, model %v %v %v", i, tp, res.Status, res.Replaced, res.Evicted, st, repl, ev)
				}
			case 1:
				g1, e1 := ref.delete(tp)
				if g2, e2 := tb.Delete(tp); g1 != g2 || e1 != e2 {
					t.Fatalf("op %d: delete %v: (%v,%v), model (%v,%v)", i, tp, g2, e2, g1, e1)
				}
			case 2:
				o1, ok1 := ref.deleteByKey(tp)
				if o2, ok2 := tb.DeleteByKey(tp); ok1 != ok2 || ok1 && !o1.Equal(o2) {
					t.Fatalf("op %d: delete by key %v: (%v,%v), model (%v,%v)", i, tp, o2, ok2, o1, ok1)
				}
			case 3:
				if e1, e2 := ref.expireBefore(now), sweep(tb, now); !sameTupleSet(e1, e2) {
					t.Fatalf("op %d: expired %v, model %v", i, e2, e1)
				}
			}
			want := ref.tuples()
			if got := tb.Tuples(); !sameTupleSet(got, want) {
				t.Fatalf("op %d: contents %v, model %v", i, got, want)
			}
			for m := 0; m < 4; m++ {
				col := val.NewAddr(fmt.Sprintf("m%d", m))
				n := 0
				for _, u := range want {
					if u.Fields[1].Equal(col) {
						n++
					}
				}
				if got := len(idx.Match([]val.Value{col})); got != n {
					t.Fatalf("op %d: index finds %d rows with %v, scan %d", i, got, col, n)
				}
			}
		}
	})
}
