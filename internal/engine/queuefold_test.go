package engine

import (
	"math/rand"
	"testing"

	"ndlog/internal/val"
)

// queueFoldSrc: kv replaces by (node, key) and is derived, row for row,
// from set, so a change to set reaches kv's queue as the deltas its
// strand routes; pair joins kv downstream and low is its minimum.
const queueFoldSrc = `
materialize(set, infinity, infinity, keys(1,2,3)).
materialize(kv, infinity, infinity, keys(1,2)).
materialize(low, infinity, infinity, keys(1)).

k1 kv(@N, K, V) :- set(@N, K, V).
j1 pair(@N, K, V, W) :- kv(@N, K, V), tag(@N, K, W).
a1 low(@N, min<V>) :- kv(@N, _K, V).
`

var foldKeyNames = []string{"i", "j", "k"}

func set(k string, v int64) val.Tuple {
	return val.NewTuple("set", val.NewAddr("n"), val.NewString(k), val.NewInt(v))
}

// queueFoldNode is a node of queueFoldSrc holding two tags for key j and
// one for each other key.
func queueFoldNode(prog *Program, mode Mode) *Node {
	n := prog.NewNode("n", Options{Mode: mode})
	for i, k := range foldKeyNames {
		for w := 0; w <= i%2; w++ {
			n.Push(Insert(val.NewTuple("tag", val.NewAddr("n"), val.NewString(k), val.NewInt(int64(w)))))
		}
	}
	n.Drain()
	return n
}

// sameState reports the first table whose rows or counts differ between
// two nodes of one program, or "".
func sameState(a, b *Node) string {
	for _, name := range []string{"set", "kv", "tag", "pair", "low"} {
		ta, tb := a.Catalog().Get(name), b.Catalog().Get(name)
		ra, rb := ta.Tuples(), tb.Tuples()
		if len(ra) != len(rb) {
			return name
		}
		for i := range ra {
			if !ra[i].Equal(rb[i]) || ta.Count(ra[i]) != tb.Count(rb[i]) {
				return name
			}
		}
	}
	return ""
}

// TestQueueFold: a retraction a node routes to itself and the insertion
// that replaces it are processed as one replacement under PSN, with the
// same result as the two deltas under SN, which does not fold.
func TestQueueFold(t *testing.T) {
	prog, err := Compile(mustParse(t, queueFoldSrc))
	if err != nil {
		t.Fatal(err)
	}
	psn, sn := queueFoldNode(prog, PSN), queueFoldNode(prog, SN)
	for _, n := range []*Node{psn, sn} {
		n.Push(Insert(set("i", 2)))
		n.Push(Insert(set("j", 1)))
		n.Drain()
		n.Push(Deletion(set("i", 2)))
		n.Push(Deletion(set("j", 1))) // another key between the halves
		n.Push(Insert(set("i", 0)))   // −kv(i,2), +kv(i,0) fold
		n.Push(Insert(set("j", 1)))   // the same tuple back: not folded
		n.Push(Deletion(set("k", 5))) // no such row: derives nothing
		n.Push(Insert(set("k", 1)))
		n.Drain()
	}
	if got := psn.Netting().QueueFolded; got != 1 {
		t.Errorf("PSN folded %d retractions, want 1", got)
	}
	if got := sn.Netting().QueueFolded; got != 0 {
		t.Errorf("SN folded %d retractions, want 0", got)
	}
	if name := sameState(psn, sn); name != "" {
		t.Errorf("%s: folded %v, unfolded %v", name, psn.Tuples(name), sn.Tuples(name))
	}
	if rows := psn.Tuples("low"); len(rows) != 1 || rows[0].Fields[1].Int() != 0 {
		t.Errorf("low = %v, want (n,0)", rows)
	}
}

// FuzzQueueFold: random insertions, deletions and replacements (the old
// tuple's retraction, then the new one) of set over a 3-key × 3-value
// domain, which kv follows, leave a node's tables — rows, derivation
// counts and the min aggregate — exactly as a fresh node loaded with the
// net base facts. set keeps at most one value per key, so kv's key holds.
// The first byte splits the deltas into two drains.
func FuzzQueueFold(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200; i++ {
		b := make([]byte, 2+rng.Intn(16))
		rng.Read(b)
		f.Add(b)
	}
	prog, err := Compile(mustParse(f, queueFoldSrc))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) < 2 {
			return
		}
		type row struct {
			v     int64
			count int
		}
		net := map[string]row{}
		var ds []Delta
		for _, c := range b[1:] {
			k, v := foldKeyNames[c%3], int64(c/3%3)
			cur, ok := net[k]
			switch c / 9 % 3 {
			case 0: // insert, unless another value holds the key
				if !ok || cur.v == v {
					ds = append(ds, Insert(set(k, v)))
					net[k] = row{v, cur.count + 1}
				}
			case 1: // delete, present or not
				ds = append(ds, Deletion(set(k, v)))
				if ok && cur.v == v {
					if cur.count--; cur.count == 0 {
						delete(net, k)
					} else {
						net[k] = cur
					}
				}
			default: // replace the key's value
				if !ok {
					break
				}
				ds = append(ds, Deletion(set(k, cur.v)))
				if cur.count > 1 {
					net[k] = row{cur.v, cur.count - 1}
					break
				}
				ds = append(ds, Insert(set(k, v)))
				net[k] = row{v, 1}
			}
		}
		n := queueFoldNode(prog, PSN)
		split := int(b[0]) % (len(ds) + 1)
		for i, d := range ds {
			if i == split {
				n.Drain()
			}
			n.Push(d)
		}
		n.Drain()
		fresh := queueFoldNode(prog, PSN)
		for k, r := range net {
			for c := r.count; c > 0; c-- {
				fresh.Push(Insert(set(k, r.v)))
			}
		}
		fresh.Drain()
		if name := sameState(n, fresh); name != "" {
			t.Fatalf("%v: %s holds %v, a fresh node %v", ds, name, n.Tuples(name), fresh.Tuples(name))
		}
	})
}
