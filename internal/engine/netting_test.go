package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"ndlog/internal/table"
	"ndlog/internal/val"
)

// foldSrc declares one predicate of every kind the queue fold must tell
// apart: kv is the only one whose replacements fold.
const foldSrc = `
materialize(kv, infinity, infinity, keys(1,2)).
materialize(soft, 30, infinity, keys(1,2)).
materialize(small, infinity, 4, keys(1,2)).
materialize(tick, 0, infinity, keys(1,2)).
materialize(row, infinity, infinity, keys(1,2,3)).
`

func foldNode(t testing.TB) *Node {
	t.Helper()
	prog, err := Compile(mustParse(t, foldSrc))
	if err != nil {
		t.Fatal(err)
	}
	return prog.NewNode("n", Options{})
}

// op parses "-kv@d:k=1": sign, predicate, location, key, value.
func op(s string) Delta {
	var pred, loc, key string
	var v int64
	rest := strings.NewReplacer("@", " ", ":", " ", "=", " ").Replace(s[1:])
	if _, err := fmt.Sscan(rest, &pred, &loc, &key, &v); err != nil {
		panic(s + ": " + err.Error())
	}
	d := Insert(val.NewTuple(pred, val.NewAddr(loc), val.NewString(key), val.NewInt(v)))
	if s[0] == '-' {
		d.Sign = -1
	}
	return d
}

func showOps(ds []Delta) string {
	var b strings.Builder
	for _, d := range ds {
		f := d.Tuple.Fields
		sign := "+"
		if d.Sign < 0 {
			sign = "-"
		}
		fmt.Fprintf(&b, "%s%s@%s:%s=%d ", sign, d.Tuple.Pred, f[0].Addr(), f[1].Str(), f[2].Int())
	}
	return strings.TrimSpace(b.String())
}

// pushAll routes ds through the node's queue as a strand's heads are
// (Node.push), then pops them all: what the queue hands the strands.
func pushAll(n *Node, ds []Delta) []Delta {
	for _, d := range ds {
		n.push(d)
	}
	out := make([]Delta, 0, n.queue.len())
	for n.queue.len() > 0 {
		out = append(out, n.queue.pop())
	}
	return out
}

// TestFoldReplacements pins the queue fold: a retraction leaves the queue
// as itself only when the next delta for its key is not an insertion of
// a different tuple; one that is takes the retraction's place.
func TestFoldReplacements(t *testing.T) {
	cases := []struct {
		name     string
		in, want []string
		collide  bool
	}{
		{name: "replacement", in: []string{"-kv@d:k=1", "+kv@d:k=2"}, want: []string{"+kv@d:k=2"}},
		{name: "alternate comes and goes",
			in:   []string{"-kv@d:k=1", "+kv@d:k=7", "-kv@d:k=7"},
			want: []string{"+kv@d:k=7", "-kv@d:k=7"}},
		{name: "through an alternate",
			in:   []string{"-kv@d:k=1", "+kv@d:k=7", "-kv@d:k=7", "+kv@d:k=2"},
			want: []string{"+kv@d:k=7", "+kv@d:k=2"}},
		{name: "lone retraction", in: []string{"-kv@d:k=1"}, want: []string{"-kv@d:k=1"}},
		{name: "same tuple back", in: []string{"-kv@d:k=1", "+kv@d:k=1"}, want: []string{"-kv@d:k=1", "+kv@d:k=1"}},
		{name: "insert then retract", in: []string{"+kv@d:k=1", "-kv@d:k=1"}, want: []string{"+kv@d:k=1", "-kv@d:k=1"}},
		{name: "only the last retraction before the insert",
			in:   []string{"-kv@d:k=1", "-kv@d:k=1", "+kv@d:k=2"},
			want: []string{"-kv@d:k=1", "+kv@d:k=2"}},
		{name: "soft state", in: []string{"-soft@d:k=1", "+soft@d:k=2"}, want: []string{"-soft@d:k=1", "+soft@d:k=2"}},
		{name: "bounded table", in: []string{"-small@d:k=1", "+small@d:k=2"}, want: []string{"-small@d:k=1", "+small@d:k=2"}},
		{name: "event", in: []string{"-tick@d:k=1", "+tick@d:k=2"}, want: []string{"-tick@d:k=1", "+tick@d:k=2"}},
		{name: "whole-row key", in: []string{"-row@d:k=1", "+row@d:k=2"}, want: []string{"-row@d:k=1", "+row@d:k=2"}},
		{name: "undeclared", in: []string{"-loose@d:k=1", "+loose@d:k=2"}, want: []string{"-loose@d:k=1", "+loose@d:k=2"}},
		{name: "two destinations and two keys interleaved",
			in: []string{"+kv@e:j=5", "-kv@d:k=1", "-kv@e:k=1", "-kv@d:j=3", "+soft@d:k=9",
				"+kv@e:k=2", "+kv@d:j=4", "-kv@e:j=5", "+kv@d:k=2"},
			want: []string{"+kv@e:j=5", "+kv@d:k=2", "+kv@e:k=2", "+kv@d:j=4", "+soft@d:k=9", "-kv@e:j=5"}},
		{name: "another destination is another row",
			in:   []string{"-kv@d:k=1", "+kv@e:k=2"},
			want: []string{"-kv@d:k=1", "+kv@e:k=2"}},
		{name: "colliding keys fold nothing", collide: true,
			in:   []string{"-kv@d:k=1", "-kv@d:j=3", "+kv@d:k=2", "+kv@d:j=4"},
			want: []string{"-kv@d:k=1", "-kv@d:j=3", "+kv@d:k=2", "+kv@d:j=4"}},
		{name: "a collision-free pair still folds under a colliding hash", collide: true,
			in:   []string{"-kv@d:k=1", "+kv@d:k=2"},
			want: []string{"+kv@d:k=2"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := foldNode(t)
			if tc.collide {
				n.queue.post = func(uint64) uint64 { return 0 }
			}
			var in []Delta
			for _, s := range tc.in {
				in = append(in, op(s))
			}
			got := pushAll(n, in)
			if showOps(got) != strings.Join(tc.want, " ") {
				t.Errorf("got  %s\nwant %s", showOps(got), strings.Join(tc.want, " "))
			}
			if folded := uint64(len(tc.in) - len(tc.want)); n.Netting().QueueFolded != folded {
				t.Errorf("QueueFolded = %d, want %d", n.Netting().QueueFolded, folded)
			}
			if len(n.queue.open) != 0 || len(n.queue.opens) != 0 || len(n.queue.preds) != 0 {
				t.Errorf("an empty queue keeps %d open keys, %d open retractions, %d predicates",
					len(n.queue.open), len(n.queue.opens), len(n.queue.preds))
			}
		})
	}
}

// TestFoldScratchRetentionBounded: a queue that opened more than
// openKeep retractions before running empty leaves its scratch map to
// the collector.
func TestFoldScratchRetentionBounded(t *testing.T) {
	n := foldNode(t)
	var big []Delta
	for i := 0; i <= openKeep; i++ {
		big = append(big, op(fmt.Sprintf("-kv@d:k%d=1", i)))
	}
	pushAll(n, []Delta{op("-kv@d:k=1"), op("+kv@d:k=2")})
	if n.queue.open == nil {
		t.Fatal("a small drain's scratch map is not kept for the next")
	}
	pushAll(n, big)
	if n.queue.open != nil {
		t.Errorf("scratch map of a %d-retraction drain retained", len(big))
	}
	pushAll(n, []Delta{op("+kv@d:k=1"), op("+kv@d:j=2")})
	if n.queue.open != nil {
		t.Error("a drain with no retraction built scratch")
	}
}

// applyOps is the reference: each delta applied to a table as the
// engine's store path would.
func applyOps(tb *table.Table, ds []Delta) {
	for i, d := range ds {
		if d.Sign > 0 {
			expires := -1.0
			if d.Life > 0 {
				expires = float64(d.Life)
			}
			tb.InsertUntil(d.Tuple, uint64(i+1), expires)
		} else {
			tb.Delete(d.Tuple)
		}
	}
}

// FuzzNetOut: whatever a table's rows hold, the deltas the queue hands
// out once it has folded replacements leave them — tuples and derivation
// counts — exactly as the un-netted deltas do — deadlines included, so a
// folded −a/+b keeps +b's lifetime. Each byte is one delta over a
// 3-key × 3-value domain, an insertion with a lifetime of 0 (hard), 1 or
// 2 seconds; the first three bytes set each key's initial row (absent, or
// a value held one to three times).
func FuzzNetOut(f *testing.F) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		b := make([]byte, 3+rng.Intn(12))
		rng.Read(b)
		f.Add(b)
	}
	n := foldNode(f)
	keys := []string{"i", "j", "k"}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 3 {
			return
		}
		plain := table.New("kv", []int{0, 1}, -1, 0)
		folded := table.New("kv", []int{0, 1}, -1, 0)
		for k, c := range b[:3] {
			row := op(fmt.Sprintf("+kv@d:%s=%d", keys[k], c%3))
			for count := int(c / 3 % 4); count > 0; count-- {
				applyOps(plain, []Delta{row})
				applyOps(folded, []Delta{row})
			}
		}
		var ds []Delta
		for _, c := range b[3:] {
			sign := "+"
			if c/9%2 == 1 {
				sign = "-"
			}
			d := op(fmt.Sprintf("%skv@d:%s=%d", sign, keys[c%3], c/3%3))
			if d.Sign > 0 {
				d.Life = float32(c / 18 % 3)
			}
			ds = append(ds, d)
		}
		applyOps(plain, ds)
		was := showOps(ds)
		applyOps(folded, pushAll(n, ds))
		got, want := folded.Tuples(), plain.Tuples()
		if len(got) != len(want) {
			t.Fatalf("%s: folded leaves %v, un-netted %v", was, got, want)
		}
		for i := range want {
			if !got[i].Equal(want[i]) || folded.Count(got[i]) != plain.Count(want[i]) {
				t.Fatalf("%s: folded leaves %v ×%d, un-netted %v ×%d", was,
					got[i], folded.Count(got[i]), want[i], plain.Count(want[i]))
			}
			fe, _ := folded.Get(got[i])
			pe, _ := plain.Get(want[i])
			if fe.Expires != pe.Expires {
				t.Fatalf("%s: folded leaves %v until %v, un-netted until %v", was, got[i], fe.Expires, pe.Expires)
			}
		}
	})
}
