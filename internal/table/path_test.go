package table

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ndlog/internal/val"
)

// TestMandatoryPathEquivalenceRandomized is the table-level oracle for the
// engine's access-path rule (DESIGN.md §14): a probe whose bound columns
// cover the primary key or an aggregate-selection group index walks that
// structure and checks the remaining bound columns by equality, instead of
// keeping an index of its own. Under random inserts, deletes and
// replacements, random keys and group columns, and random probe column
// sets, that walk must visit exactly the rows a dedicated index's Match
// returns — and, through the primary key, at most one.
func TestMandatoryPathEquivalenceRandomized(t *testing.T) {
	const arity = 4
	posts := map[string]func(uint64) uint64{
		"":         nil,
		"-collide": func(h uint64) uint64 { return h & 3 },
	}
	pkWalks, groupWalks := 0, 0
	for seed := int64(1); seed <= 12; seed++ {
		for suffix, post := range posts {
			t.Run(fmt.Sprintf("seed%d%s", seed, suffix), func(t *testing.T) {
				r := rand.New(rand.NewSource(seed))
				randCols := func(n int) []int { return r.Perm(arity)[:n] }

				var keys []int // every third table is keyed on the whole row
				if seed%3 != 0 {
					keys = randCols(1 + r.Intn(arity-1))
				}
				tb := New("p", keys, -1, 0)
				tb.post = post
				group := randCols(1 + r.Intn(2))
				groupIx := tb.EnsureIndex(group)

				randTuple := func() val.Tuple {
					fs := make([]val.Value, arity)
					for i := range fs {
						fs[i] = val.NewInt(int64(r.Intn(3)))
					}
					return val.NewTuple("p", fs...)
				}
				// walk filters candidates by equality on the probe's columns,
				// as unification does on the join path.
				walk := func(cands []*Entry, cols []int, vals []val.Value) []*Entry {
					var out []*Entry
					for _, e := range cands {
						ok := true
						for i, c := range cols {
							ok = ok && e.Fields[c].Equal(vals[i])
						}
						if ok {
							out = append(out, e)
						}
					}
					return out
				}
				sameRows := func(got, want []*Entry) bool {
					if len(got) != len(want) {
						return false
					}
					for _, e := range want {
						if !slices.Contains(got, e) {
							return false
						}
					}
					return true
				}

				for step := 0; step < 1500; step++ {
					tp := randTuple()
					switch r.Intn(8) {
					case 0, 1, 2, 3, 4:
						tb.Insert(tp, uint64(step), 0) // new, duplicate or key replacement
					case 5, 6:
						tb.Delete(tp)
					case 7:
						tb.DeleteByKey(tp)
					}
					if step%7 != 0 {
						continue
					}
					probe := randCols(1 + r.Intn(arity))
					slices.Sort(probe)
					at := randTuple()
					vals := make([]val.Value, len(probe))
					for i, c := range probe {
						vals[i] = at.Fields[c]
					}
					// The oracle: an index dedicated to exactly the probe's columns
					// (backfilled on first use, maintained from then on).
					oracle := tb.EnsureIndex(probe).Match(vals)

					covers := func(cols []int) bool {
						for _, c := range cols {
							if !slices.Contains(probe, c) {
								return false
							}
						}
						return true
					}
					pk, pkHash := keys, val.NewHash()
					if len(keys) == 0 {
						pk = []int{0, 1, 2, 3}
						pkHash = pkHash.AddString("p")
					}
					if covers(pk) {
						pkWalks++
						for _, c := range pk {
							pkHash = pkHash.AddValue(at.Fields[c])
						}
						var chain []*Entry
						for e := tb.KeyChain(pkHash.Sum()); e != nil; e = tb.Next(e) {
							chain = append(chain, e)
						}
						got := walk(chain, probe, vals)
						if len(got) > 1 || !sameRows(got, oracle) {
							t.Fatalf("step %d: pk%v walk for probe %v=%v visits %d rows, dedicated index %d",
								step, pk, probe, vals, len(got), len(oracle))
						}
					}
					if covers(group) {
						groupWalks++
						h := val.NewHash()
						for _, c := range group {
							h = h.AddValue(at.Fields[c])
						}
						var bucket []*Entry
						for b := groupIx.Bucket(h.Sum()); ; {
							e := b.Next()
							if e == nil {
								break
							}
							bucket = append(bucket, e)
						}
						if got := walk(bucket, probe, vals); !sameRows(got, oracle) {
							t.Fatalf("step %d: group%v walk for probe %v=%v visits %d rows, dedicated index %d",
								step, group, probe, vals, len(got), len(oracle))
						}
					}
				}
			})
		}
	}
	if pkWalks < 100 || groupWalks < 100 {
		t.Fatalf("too few covered probes to mean anything: %d through a primary key, %d through a group index", pkWalks, groupWalks)
	}
	t.Logf("%d probes walked a primary-key chain, %d a group bucket", pkWalks, groupWalks)
}
