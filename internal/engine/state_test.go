package engine

import (
	"bytes"
	"testing"

	"ndlog/internal/parser"
	"ndlog/internal/programs"
	"ndlog/internal/val"
)

const reachSrc = `
materialize(edge, infinity, infinity, keys(1,2)).
materialize(reach, infinity, infinity, keys(1,2)).
r1 reach(@S,@D) :- #edge(@S,@D).
r2 reach(@S,@D) :- #edge(@S,@Z), reach(@Z,@D).
`

func edgeAt(a, b string) val.Tuple {
	return val.NewTuple("edge", val.NewAddr(a), val.NewAddr(b))
}

// TestExportImportRebuildsFixpoint: a migrated node ships only base
// facts, as one insert batch in the wire codec; the importer re-derives
// the views and reaches the identical fixpoint.
func TestExportImportRebuildsFixpoint(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"a", "c"}} {
		src.Insert(edgeAt(e[0], e[1]))
	}
	want := src.Tuples("reach")
	if len(want) == 0 {
		t.Fatal("no derived tuples at source")
	}

	st := src.Node().Export(nil)
	for _, d := range st {
		if d.Tuple.Pred == "reach" {
			t.Fatalf("derived hard state exported: %v", d.Tuple)
		}
		if d.Sign != +1 || d.Life != 0 {
			t.Fatalf("hard state exported as %v with lifetime %v, want a plain insertion", d, d.Life)
		}
	}
	if len(st) != 4 {
		t.Fatalf("exported %d deltas, want 4 base edges", len(st))
	}
	for i := 1; i < len(st); i++ {
		if st[i-1].Tuple.Compare(st[i].Tuple) > 0 {
			t.Fatalf("export out of Tuple order at %d: %v after %v", i, st[i], st[i-1])
		}
	}

	// Wire round trip must be exact (export is sorted, so byte-stable).
	enc := AppendDeltas(nil, st)
	dec, err := DecodeDeltasInto(enc, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(st) {
		t.Fatalf("round trip %d deltas, want %d", len(dec), len(st))
	}
	for i := range st {
		if !dec[i].Tuple.Equal(st[i].Tuple) || dec[i].Sign != st[i].Sign || dec[i].Life != st[i].Life {
			t.Fatalf("delta %d mismatch: %v vs %v", i, dec[i], st[i])
		}
	}
	if again := AppendDeltas(nil, src.Node().Export(nil)); !bytes.Equal(again, enc) {
		t.Fatal("a second export of the same state encodes differently")
	}

	dst, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dec {
		dst.Node().Push(d)
	}
	dst.Fixpoint()
	got := dst.Tuples("reach")
	if len(got) != len(want) {
		t.Fatalf("rebuilt %d reach tuples, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("fixpoint mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestImportPreservesCounts: hard-state derivation counts survive a
// migration, so the count algorithm keeps working at the destination.
func TestImportPreservesCounts(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	src.Insert(edgeAt("a", "b"))
	src.Insert(edgeAt("a", "b")) // count 2

	dst, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := src.Node().Export(nil)
	if len(st) != 2 {
		t.Fatalf("a count-2 edge exported as %d insertions, want 2", len(st))
	}
	for _, d := range st {
		dst.Node().Push(d)
	}
	dst.Fixpoint()

	dst.Delete(edgeAt("a", "b"))
	if len(dst.Tuples("edge")) != 1 {
		t.Fatal("edge vanished after one delete of a count-2 tuple")
	}
	dst.Delete(edgeAt("a", "b"))
	if len(dst.Tuples("edge")) != 0 {
		t.Fatal("edge survived both deletes")
	}
}

// TestExportSoftStateLifetimes: soft-state tuples carry their remaining
// lifetimes (Delta.Life); a tuple whose lifetime has lapsed is not
// exported.
func TestExportSoftStateLifetimes(t *testing.T) {
	src := `
materialize(ping, 30, infinity, keys(1,2)).
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Node()
	n.SetNow(100)
	c.Insert(val.NewTuple("ping", val.NewAddr("a"), val.NewAddr("b")))
	n.SetNow(110)
	st := n.Export(nil)
	if len(st) != 1 {
		t.Fatalf("exported %d deltas, want 1", len(st))
	}
	if got := st[0].Life; got != 20 {
		t.Fatalf("life = %v, want 20", got)
	}

	// Lapsed before the export: nothing left to ship.
	n.SetNow(1000)
	if lapsed := n.Export(nil); len(lapsed) != 0 {
		t.Fatalf("exported %d lapsed deltas, want 0", len(lapsed))
	}

	// A live import enters with the lifetime it had left — migration
	// cannot extend soft state — and lapses then.
	dst, err := NewCentral(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dn := dst.Node()
	dn.SetNow(500)
	dn.Push(st[0])
	dst.Fixpoint()
	e, ok := dn.Catalog().Get("ping").Get(st[0].Tuple)
	if !ok {
		t.Fatal("imported tuple not stored")
	}
	if e.Expires != 520 { // now(500) + remaining(20), not now + ttl(30)
		t.Fatalf("imported expiry = %v, want 520", e.Expires)
	}
	dn.SetNow(519.9)
	dn.ExpireSoftState()
	if len(dn.Tuples("ping")) != 1 {
		t.Fatal("imported row lapsed before its remaining lifetime")
	}
	dn.SetNow(520)
	dn.ExpireSoftState()
	if len(dn.Tuples("ping")) != 0 {
		t.Fatal("imported row outlived its remaining lifetime")
	}
}

// TestRederiveFor: a neighbor's sweep re-sends exactly the derivations
// homed at the migrated nodes — nothing for other destinations, and
// nothing when the node itself migrated.
func TestRederiveFor(t *testing.T) {
	prog, err := parser.Parse(reachSrc)
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode("a", prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// a holds edges a->b and a->c; r1's heads reach(@a,..) are local,
	// but the localized r2 ships a's edge knowledge toward b and c.
	n.Push(Insert(edgeAt("a", "b")))
	n.Push(Insert(edgeAt("a", "c")))
	n.Drain()

	outs := n.RederiveFor(map[string]bool{"b": true})
	if len(outs) == 0 {
		t.Fatal("no rederived deltas for migrated neighbor b")
	}
	for _, o := range outs {
		if o.Dst != "b" {
			t.Fatalf("delta routed to %q, want only b: %v", o.Dst, o.Delta)
		}
		if o.Delta.Sign <= 0 {
			t.Fatalf("rederivation emitted a deletion: %v", o.Delta)
		}
	}
	if got := n.RederiveFor(map[string]bool{"a": true}); got != nil {
		t.Fatalf("self-sweep emitted %d deltas, want none", len(got))
	}
	if got := n.RederiveFor(nil); got != nil {
		t.Fatalf("empty dst set emitted %d deltas", len(got))
	}
}

// TestRederiveForDeterministic: a sweep walks the program's rules in one
// fixed order, so repeated sweeps of the same state return the same
// deltas in the same order. The Figure 1 program's swept rules start
// from more than one predicate, which is what a map-ordered walk
// shuffles (Go re-randomizes every map range).
func TestRederiveForDeterministic(t *testing.T) {
	ring := []string{"a", "b", "c", "d"}
	prog := mustParse(t, programs.ShortestPath(""))
	for i, a := range ring {
		b := ring[(i+1)%len(ring)]
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", a, b, 1), programs.LinkFact("link", b, a, 1))
	}
	p, err := NewParallel(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.workers = 1
	for _, id := range ring {
		p.AddNode(id)
	}
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	n, dsts := p.Node("a"), map[string]bool{"b": true, "c": true, "d": true}
	want := AppendOutDeltas(nil, n.RederiveFor(dsts))
	if len(want) == 0 {
		t.Fatal("sweep returned nothing")
	}
	for i := 0; i < 128; i++ {
		if got := AppendOutDeltas(nil, n.RederiveFor(dsts)); !bytes.Equal(got, want) {
			t.Fatalf("sweep %d returned its deltas in a different order", i+1)
		}
	}
}
