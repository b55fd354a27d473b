package engine

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ndlog/internal/ast"
	"ndlog/internal/programs"
	"ndlog/internal/simnet"
	"ndlog/internal/val"
)

// Tests for the tuple lifecycle rule (DESIGN.md §3): a derived tuple is
// allocated once, by whoever will keep it, and nothing else on the
// per-delta or per-drain path allocates. The budgets are exact, so a
// regression fails here before it shows in the benchmark.

func pathDelta(cost float64) Delta {
	return Insert(val.NewTuple("path", val.NewAddr("a"), val.NewAddr("d"), val.NewAddr("b"),
		val.NewList(val.NewAddr("a"), val.NewAddr("b"), val.NewAddr("c"), val.NewAddr("d")),
		val.NewFloat(cost)))
}

// TestDecodeAllocBudget: a path(@S,D,Z,[…],C) delta decoded into a
// reused batch through a warm string table is one object — the array
// holding its fields and its path vector.
func TestDecodeAllocBudget(t *testing.T) {
	in := val.NewInterner()
	msg := AppendDeltas(nil, []Delta{pathDelta(2.5)})
	scratch, err := DecodeMessageInto(msg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		scratch, _ = DecodeMessageInto(msg, in, scratch[:0])
	})
	if got != 1 {
		t.Errorf("decoding one path delta allocates %v objects, want 1", got)
	}
}

// TestDecodeSurvivesBufferAndScratchReuse extends the copy-on-decode
// test to the whole receive path: tuples taken out of a decoded batch
// stay intact when the read buffer is scribbled over and the decode
// scratch is zeroed and reused for another message — for lists mid-row,
// last in the row, empty, and nested.
func TestDecodeSurvivesBufferAndScratchReuse(t *testing.T) {
	tuples := []val.Tuple{
		pathDelta(2.5).Tuple,
		val.NewTuple("tail", val.NewAddr("a"), val.NewList(val.NewString("last"), val.NewString("field"))),
		val.NewTuple("empty", val.NewAddr("a"), val.NewList(), val.NewString("after")),
		val.NewTuple("nested", val.NewAddr("a"),
			val.NewList(val.NewList(val.NewAddr("x"), val.NewList()), val.NewString("mid"), val.NewList(val.NewInt(9)))),
		val.NewTuple("flat", val.NewAddr("a"), val.NewInt(7), val.NewBool(true)),
	}
	var want []Delta
	for i, tp := range tuples {
		want = append(want, Delta{Sign: int8(1 - 2*(i%2)), Tuple: tp})
	}
	msg := AppendDeltas(nil, want)
	other := AppendDeltas(nil, []Delta{Insert(val.NewTuple("zzzz", val.NewAddr("qqqq"),
		val.NewList(val.NewAddr("rrrr"), val.NewAddr("ssss"), val.NewAddr("tttt"), val.NewAddr("uuuu"))))})

	in := val.NewInterner()
	buf := append([]byte(nil), msg...)
	scratch, err := DecodeMessageInto(buf, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	kept := append([]Delta(nil), scratch...) // what Push does: copy the Delta, share the tuple
	for i := range buf {
		buf[i] = 0xA5
	}
	clear(scratch)
	if scratch, err = DecodeMessageInto(other, in, scratch[:0]); err != nil {
		t.Fatal(err)
	}
	for i, d := range kept {
		if d.Sign != want[i].Sign || !d.Tuple.Equal(want[i].Tuple) {
			t.Errorf("delta %d corrupted by buffer/scratch reuse: %v, want %v", i, d, want[i])
		}
	}
	if re := AppendDeltas(nil, kept); !bytes.Equal(re, msg) {
		t.Error("kept deltas do not re-encode to the original message")
	}
}

// TestClusterPumpDuplicateMessageAllocBudget: in steady state a message
// whose deltas are all duplicates of stored hard state costs exactly its
// decoded tuples — one array per insertion. The payload returns to the
// cluster's free list once decoded, so the next message is encoded into
// it; the decoded batch, the node's queue and the drain's (empty) output
// are all reused.
func TestClusterPumpDuplicateMessageAllocBudget(t *testing.T) {
	_, cl := figure2Cluster(t, Options{}, ClusterConfig{})
	runCluster(t, cl)
	n := cl.Node("a")
	stored := n.Tuples("path")
	if len(stored) < 3 {
		t.Fatalf("node a stores %d path tuples, want >= 3", len(stored))
	}
	var ds []Delta
	for _, tp := range stored[:3] {
		ds = append(ds, Insert(tp))
	}
	h := &clusterHandler{c: cl, n: n}
	before := cl.sim.Messages()
	got := testing.AllocsPerRun(50, func() {
		h.HandleMessage(cl.sim.Now(), simnet.NodeID("b"), AppendDeltas(cl.takePayload(), ds))
	})
	if want := float64(len(ds)); got != want {
		t.Errorf("duplicate-only message of %d deltas allocates %v objects, want %v", len(ds), got, want)
	}
	if cl.sim.Messages() != before {
		t.Error("duplicate-only message must not derive anything")
	}
}

// TestDecodeRetractionsAllocBudget: a message's retractions are carved
// from chunks the message owns, so 64 path retractions — 576 values —
// cost a handful of chunks, not 64 arrays.
func TestDecodeRetractionsAllocBudget(t *testing.T) {
	var ds []Delta
	for i := range 64 {
		ds = append(ds, Deletion(pathDelta(float64(i)).Tuple))
	}
	msg := AppendDeltas(nil, ds)
	in := val.NewInterner()
	scratch, err := DecodeMessageInto(msg, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range scratch {
		if d.Sign != -1 || !d.Tuple.Equal(ds[i].Tuple) {
			t.Fatalf("delta %d decoded as %v, want %v", i, d, ds[i])
		}
	}
	got := testing.AllocsPerRun(100, func() {
		scratch, _ = DecodeMessageInto(msg, in, scratch[:0])
	})
	if got > 8 {
		t.Errorf("decoding 64 retractions allocates %v objects, want <= 8", got)
	}
}

// TestRetractionCascadeAllocBudget: one retraction fanning out to 1 000
// derived retractions carves them from the node's chunks — a few arrays
// for the lot — and the drain that consumes them keeps nothing.
func TestRetractionCascadeAllocBudget(t *testing.T) {
	c := central(t, `
materialize(trig, infinity, infinity, keys(1,2)).
materialize(item, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@S,I) :- trig(@S,K), item(@S,I).
`, Options{})
	const fanout = 1000
	a := val.NewAddr("a")
	for i := range fanout {
		c.Insert(val.NewTuple("item", a, val.NewInt(int64(i))))
	}
	n := c.Node()
	// trig is not stored, so the out rows its retraction names are not
	// either: each derived retraction is an exact no-op at the table, and
	// the same cascade can run again and again.
	trig := val.NewTuple("trig", a, val.NewInt(1))
	n.runNormalStrands(-1, trig, never, noLimit, noLimit)
	if got := n.QueueLen(); got != fanout {
		t.Fatalf("the retraction derived %d retractions, want %d", got, fanout)
	}
	n.Drain()
	allocs := testing.AllocsPerRun(20, func() {
		n.runNormalStrands(-1, trig, never, noLimit, noLimit)
		n.Drain()
	})
	if per := allocs / fanout; per > 0.05 {
		t.Errorf("a %d-retraction cascade allocates %v objects (%.3f per retraction), want <= 0.05", fanout, allocs, per)
	}
}

// TestDrainIntoCallerBuffer: DrainInto appends into the array its caller
// hands it — deltas routed between drains included — and keeps no
// reference to it; reuseOut hands a driver back a cleared array, never
// one above outKeep.
func TestDrainIntoCallerBuffer(t *testing.T) {
	prog := mustParse(t, `
materialize(link, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2)).
r1 out(@Y,@X) :- #link(@X,@Y).
`)
	n, err := NewNode("a", prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	link := func(dst string) val.Tuple { return val.NewTuple("link", val.NewAddr("a"), val.NewAddr(dst)) }
	buf := make([]OutDelta, 0, 4)
	n.Push(Insert(link("c")))
	first := n.DrainInto(buf)
	if len(first) != 1 || first[0].Dst != "c" {
		t.Fatalf("first drain = %v, want one delta for c", first)
	}
	if &first[0] != &buf[:1][0] {
		t.Error("the drain did not append into the caller's array")
	}
	if n.out != nil {
		t.Error("the node kept a reference to the caller's buffer")
	}
	// A delta routed between drains (as an expiry sweep routes) lands in
	// the next drain's buffer, after what the caller already holds and
	// sorted with that drain's own output.
	n.runNormalStrands(+1, link("d"), never, noLimit, noLimit)
	n.Push(Insert(link("b")))
	second := n.DrainInto(first)
	if len(second) != 3 || second[0].Dst != "c" || second[1].Dst != "b" || second[2].Dst != "d" {
		t.Fatalf("second drain = %v, want c kept, then b and d", second)
	}
	if &second[0] != &first[0] {
		t.Error("the second drain did not append into the caller's array")
	}

	reused := reuseOut(buf, second)
	if len(reused) != 0 || &reused[:1][0] != &second[0] {
		t.Error("reuseOut did not hand back the drain's array, emptied")
	}
	for i, o := range second {
		if o.Dst != "" || o.Delta.Tuple.Fields != nil {
			t.Errorf("reuseOut left delta %d in the array: %v", i, o)
		}
	}
	// A burst's array is not kept: the driver's previous one comes back,
	// cleared in full, because the drain filled it before outgrowing it.
	small := make([]OutDelta, 2)
	small[1] = OutDelta{Dst: "x", Delta: Insert(link("x"))}
	reused = reuseOut(small[:0], make([]OutDelta, outKeep+1))
	if cap(reused) > outKeep || &reused[:1][0] != &small[0] || small[1].Dst != "" {
		t.Errorf("reuseOut after a burst kept a %d-delta array, want the driver's cleared %d-delta one", cap(reused), cap(small))
	}
}

// remoteHeads is a two-node deployment whose trig event at a derives
// out(@b,a,I) for each of a's 64 items: 64 insertions bound for b.
const remoteHeads = `
materialize(trig, 0, infinity, keys(1,2)).
materialize(link, infinity, infinity, keys(1,2)).
materialize(item, infinity, infinity, keys(1,2)).
materialize(out, infinity, infinity, keys(1,2,3)).
r1 out(@D,@S,I) :- trig(@S,K), #link(@S,@D), item(@S,I).
`

const remoteFanout = 64

func remoteProgram(t *testing.T) *ast.Program {
	t.Helper()
	prog := mustParse(t, remoteHeads)
	a := val.NewAddr("a")
	prog.Facts = append(prog.Facts, val.NewTuple("link", a, val.NewAddr("b")))
	for i := range remoteFanout {
		prog.Facts = append(prog.Facts, val.NewTuple("item", a, val.NewInt(int64(i))))
	}
	return prog
}

var trigA = Insert(val.NewTuple("trig", val.NewAddr("a"), val.NewInt(1)))

// TestClusterPumpRemoteHeadsAllocBudget: a pump whose drain derives 64
// insertions for another node costs a few allocations at the sender,
// not one per insertion — the heads are carved, the driver's array is
// reused, and the message is one payload — and a pump whose drain emits
// nothing costs nothing and leaves the driver's array in place.
func TestClusterPumpRemoteHeadsAllocBudget(t *testing.T) {
	sim := simnet.New(1)
	cl, err := NewCluster(sim, remoteProgram(t), Options{}, ClusterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := cl.AddNode("a"), cl.AddNode("b")
	if err := sim.AddLink("a", "b", 0.010, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(1000); err != nil {
		t.Fatal(err)
	}
	a.Push(trigA)
	cl.pump(a)
	sim.RunToQuiescence(1000)
	if got := len(b.Tuples("out")); got != remoteFanout {
		t.Fatalf("b stores %d out rows, want %d", got, remoteFanout)
	}
	// The link is down from here on: a send is dropped where it is made,
	// so what is measured is the sender alone.
	if err := sim.SetDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	before := sim.Dropped()
	allocs := testing.AllocsPerRun(50, func() {
		a.Push(trigA)
		cl.pump(a)
	})
	if sim.Dropped() == before {
		t.Fatal("the measured pumps sent nothing")
	}
	if allocs > 4 {
		t.Errorf("a pump deriving %d remote insertions allocates %v objects, want <= 4", remoteFanout, allocs)
	}

	kept := cl.outBuf[:1]
	trigB := Insert(val.NewTuple("trig", val.NewAddr("b"), val.NewInt(1)))
	idle := testing.AllocsPerRun(50, func() {
		b.Push(trigB)
		cl.pump(b)
	})
	if idle != 0 {
		t.Errorf("a pump whose drain emits nothing allocates %v objects, want 0", idle)
	}
	if &cl.outBuf[:1][0] != &kept[0] {
		t.Error("a pump whose drain emits nothing replaced the cluster's drain array")
	}
}

// TestParallelRemoteHeadsAllocBudget: under Parallel a head bound for
// another node crosses by reference and is stored there, so the drain
// that derives 64 of them costs exactly one exact array each — the
// worker's drain array and the receiver's inbox are reused.
func TestParallelRemoteHeadsAllocBudget(t *testing.T) {
	p, err := NewParallel(remoteProgram(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	p.workers = 1
	p.AddNode("a")
	p.AddNode("b")
	p.ready = make(chan *pnode, 2)
	pa, pb := p.nodes["a"], p.nodes["b"]
	for _, f := range p.prog.source.Facts {
		pa.n.Push(Insert(f))
	}
	pa.n.Drain()
	trig := []Delta{trigA}
	var buf []OutDelta
	round := func() {
		pa.state.Store(pnScheduled)
		p.pending.Add(1)
		pa.inbox = trig
		buf = p.work(pa, buf)
		// Take b off the ready queue as if its worker had run it, keeping
		// its inbox's array.
		<-p.ready
		pb.state.Store(pnIdle)
		p.pending.Add(-1)
		clear(pb.inbox)
		pb.inbox = pb.inbox[:0]
	}
	round()
	allocs := testing.AllocsPerRun(50, round)
	if allocs != remoteFanout {
		t.Errorf("a Parallel drain deriving %d remote insertions allocates %v objects, want %d", remoteFanout, allocs, remoteFanout)
	}
}

// TestStrandRunsKeepTriggerOffHeap: running a delta through aggregate
// and deletion strands allocates nothing when nothing is derived — in
// particular no heap copy of the trigger tuple (the join context holds
// it by value).
func TestStrandRunsKeepTriggerOffHeap(t *testing.T) {
	c := central(t, `
materialize(path, infinity, infinity, keys(1,2,3)).
materialize(best, infinity, infinity, keys(1,2)).
materialize(other, infinity, infinity, keys(1,2)).
materialize(joined, infinity, infinity, keys(1,2)).
a1 best(@S,D,min<C>) :- path(@S,D,C).
j1 joined(@S,D) :- path(@S,D,C), other(@S,D).
`, Options{})
	c.Insert(val.NewTuple("path", val.NewAddr("a"), val.NewAddr("b"), val.NewInt(5)))
	n := c.Node()
	worse := val.NewTuple("path", val.NewAddr("a"), val.NewAddr("b"), val.NewInt(7))
	agg := testing.AllocsPerRun(100, func() {
		// Add then remove a value that is never the group minimum: the
		// aggregate output does not change, so nothing is routed.
		n.runAggStrands(val.Tuple{}, worse, noLimit, noLimit)
		n.runAggStrands(worse, val.Tuple{}, noLimit, noLimit)
	})
	if agg != 0 {
		t.Errorf("aggregate strand runs allocate %v objects, want 0", agg)
	}
	del := testing.AllocsPerRun(100, func() {
		// Deletion strands with an empty join partner derive nothing.
		n.runNormalStrands(-1, worse, never, noLimit, noLimit)
	})
	if del != 0 {
		t.Errorf("deletion strand run allocates %v objects, want 0", del)
	}
	if got := c.Tuples("best"); len(got) != 1 || got[0].Fields[2].Int() != 5 {
		t.Errorf("best = %v, want the untouched minimum 5", got)
	}
}

// TestQueueRetentionBounded: the delta queue's backing array tracks
// pending work, not processed work, and a burst's array is dropped.
func TestQueueRetentionBounded(t *testing.T) {
	// A long run with little pending: every pop is followed by a push,
	// as in a derivation chain, 100k times over.
	var q deltaQueue
	d := Insert(val.NewTuple("p", val.NewAddr("a")))
	const pending = 10
	for i := 0; i < pending; i++ {
		q.push(d)
	}
	maxCap := 0
	for i := 0; i < 100_000; i++ {
		q.pop()
		q.push(d)
		maxCap = max(maxCap, cap(q.buf))
	}
	if q.len() != pending {
		t.Fatalf("queue holds %d deltas, want %d", q.len(), pending)
	}
	if maxCap > 4*pending {
		t.Errorf("backing array grew to %d deltas with %d pending", maxCap, pending)
	}
	for i, e := range q.buf[:q.head] {
		if e.Tuple.Pred != "" {
			t.Fatalf("processed slot %d still references its tuple", i)
		}
	}

	// A burst through one node: 100k deltas queued at once, drained to
	// the end. Nothing of the burst's array may be kept.
	c := central(t, "materialize(p, infinity, infinity, keys(1,2)).\n", Options{})
	n := c.Node()
	for i := 0; i < 100_000; i++ {
		n.Push(Insert(val.NewTuple("p", val.NewAddr("a"), val.NewInt(int64(i)))))
	}
	c.Fixpoint()
	if got := n.Catalog().Get("p").Len(); got != 100_000 {
		t.Fatalf("stored %d rows, want 100000", got)
	}
	if n.QueueLen() != 0 || n.queue.head != 0 || cap(n.queue.buf) > idleKeep {
		t.Errorf("after the burst the queue keeps a %d-delta array (head %d), bound is %d",
			cap(n.queue.buf), n.queue.head, idleKeep)
	}

	// Once a drain is done, an idle node keeps no more than idleKeep
	// deltas of FIFO array, however long it was.
	for i := 0; i < 2*idleKeep; i++ {
		n.Push(Insert(val.NewTuple("p", val.NewAddr("b"), val.NewInt(int64(i)))))
	}
	c.Fixpoint()
	if cap(n.queue.buf) > idleKeep {
		t.Errorf("an idle node keeps a %d-delta FIFO array, bound is %d", cap(n.queue.buf), idleKeep)
	}
}

// TestReadvertiseAllocBudget: the aggregate-selection fallback walks its
// group's bucket in place. After a fixpoint every group has an advertised
// best, so re-checking it after a retraction allocates nothing.
func TestReadvertiseAllocBudget(t *testing.T) {
	c := central(t, programs.ShortestPath(""), Options{AggSel: true})
	for _, l := range figure2 {
		c.Insert(programs.LinkFact("link", l.a, l.b, l.cost))
		c.Insert(programs.LinkFact("link", l.b, l.a, l.cost))
	}
	n := c.Node()
	paths := n.Tuples("path")
	if len(paths) == 0 {
		t.Fatal("no path rows")
	}
	for _, p := range paths {
		if got := testing.AllocsPerRun(50, func() { n.readvertiseGroups(p) }); got != 0 {
			t.Fatalf("re-checking the group of %v allocates %v objects, want 0", p, got)
		}
	}
}

// spJoin returns a ShortestPath node holding path(b,c,c,[b,c],1), the
// sp2b strand triggered by path_d1, and the trigger path_d1 that link
// a→b puts at b: together they derive path(a,c,b,[a,b,c],2).
func spJoin(t *testing.T) (*Node, *strand, val.Tuple) {
	t.Helper()
	c := central(t, programs.ShortestPath(""), Options{})
	c.Insert(programs.LinkFact("link", "a", "b", 1))
	c.Insert(programs.LinkFact("link", "b", "c", 1))
	n := c.Node()
	d1 := n.Tuples("path_d1")
	i := slices.IndexFunc(d1, func(tp val.Tuple) bool { return tp.Loc() == "b" })
	j := slices.IndexFunc(n.prog.strands["path_d1"], func(st *strand) bool { return st.rule.Label == "sp2b" })
	if i < 0 || j < 0 {
		t.Fatalf("no sp2b strand or no path_d1 row at b (%v)", d1)
	}
	return n, n.prog.strands["path_d1"][j], d1[i]
}

var wantABC = val.NewTuple("path", val.NewAddr("a"), val.NewAddr("c"), val.NewAddr("b"),
	val.NewList(val.NewAddr("a"), val.NewAddr("b"), val.NewAddr("c")), val.NewFloat(2))

// TestFusedDerivationAllocBudget: an sp2 derivation, whose path vector
// P := f_concatPath(S, P2) only the head reads, is one allocation — the
// array holding the tuple's fields and then its path vector.
func TestFusedDerivationAllocBudget(t *testing.T) {
	n, st, trig := spJoin(t)
	var got []val.Tuple
	emit := func(d derived) { got = append(got[:0], d.tuple) }
	allocs := testing.AllocsPerRun(100, func() {
		if err := st.run(n.resetCtx(+1, trig, never, noLimit, noLimit), trig, emit); err != nil {
			t.Fatal(err)
		}
	})
	if len(got) != 1 || !got[0].Equal(wantABC) {
		t.Fatalf("derived %v, want %v", got, wantABC)
	}
	if allocs != 1 {
		t.Errorf("one sp2 derivation allocates %v objects, want 1", allocs)
	}
}

// TestFusedListOwnsItsMemory: a fused path vector shares no memory with
// its partner's P2, with the join context's list scratch, or with the
// next derivation's tuple, and survives both scratches being scribbled
// over and reused.
func TestFusedListOwnsItsMemory(t *testing.T) {
	n, st, trig := spJoin(t)
	var got val.Tuple
	emit := func(d derived) { got = d.tuple }
	derive := func() val.Tuple {
		got = val.Tuple{}
		if err := st.run(n.resetCtx(+1, trig, never, noLimit, noLimit), trig, emit); err != nil {
			t.Fatal(err)
		}
		return got
	}
	first := derive()
	p := first.Fields[3].List()
	if cap(first.Fields) != len(first.Fields) {
		t.Errorf("Fields has capacity %d beyond its %d fields: an append would overwrite the list", cap(first.Fields), len(first.Fields))
	}
	disjoint := func(what string, other []val.Value) {
		t.Helper()
		for i := range p {
			for j := range other {
				if &p[i] == &other[j] {
					t.Errorf("path vector element %d shares memory with %s[%d]", i, what, j)
				}
			}
		}
	}
	var p2 []val.Value
	for _, row := range n.Tuples("path") {
		if row.Fields[0].Equal(val.NewAddr("b")) {
			p2 = row.Fields[3].List()
		}
	}
	disjoint("partner P2", p2)
	disjoint("list scratch", n.jc.listBuf[:cap(n.jc.listBuf)])

	junk := val.NewString("scribbled")
	for _, buf := range [][]val.Value{n.jc.listBuf[:cap(n.jc.listBuf)], n.jc.headBuf[:cap(n.jc.headBuf)]} {
		for i := range buf {
			buf[i] = junk
		}
	}
	second := derive()
	disjoint("next tuple's fields", second.Fields)
	disjoint("next tuple's path vector", second.Fields[3].List())
	for _, tp := range []val.Tuple{first, second} {
		if !tp.Equal(wantABC) {
			t.Errorf("derived %v, want %v", tp, wantABC)
		}
	}
}

// TestFusionRefusals: a list assignment is fused only when the head's one
// plain-variable read is its only reader, in a non-aggregate rule; the
// refused shapes keep the tail assignment and still derive the same rows.
func TestFusionRefusals(t *testing.T) {
	src := `
materialize(link, infinity, infinity, keys(1,2)).
materialize(fused, infinity, infinity, keys(1,2)).
materialize(sel, infinity, infinity, keys(1,2)).
materialize(twice, infinity, infinity, keys(1,2,3)).
materialize(expr, infinity, infinity, keys(1,2)).
materialize(agg, infinity, infinity, keys(1,2)).
f1 fused(@S,P) :- link(@S,D), P := f_concatPath(S, [D]).
f2 sel(@S,P) :- link(@S,D), P := f_concatPath(S, [D]), f_size(P) == 2.
f3 twice(@S,P,P) :- link(@S,D), P := f_concatPath(S, [D]).
f4 expr(@S,N) :- link(@S,D), P := f_concatPath(S, [D]), N := D, f_size(P) > 0.
f5 expr(@S,f_size(P)) :- link(@S,_D), P := f_list(S, S).
f6 agg(@S,P,count<D>) :- link(@S,D), P := f_concatPath(S, [D]).
link(@a,b).
link(@a,c).
`
	c := central(t, src, Options{})
	fused := map[string]bool{}
	for _, sts := range c.prog.strands {
		for _, st := range sts {
			for _, ha := range st.code.head {
				if ha.list != nil {
					fused[st.rule.Label] = true
				}
			}
		}
	}
	if len(fused) != 1 || !fused["f1"] {
		t.Errorf("fused rules %v, want only f1", fused)
	}
	a := val.NewAddr("a")
	ab, ac := val.NewList(a, val.NewAddr("b")), val.NewList(a, val.NewAddr("c"))
	for pred, want := range map[string][]val.Tuple{
		"fused": {val.NewTuple("fused", a, ab), val.NewTuple("fused", a, ac)},
		"sel":   {val.NewTuple("sel", a, ab), val.NewTuple("sel", a, ac)},
		"twice": {val.NewTuple("twice", a, ab, ab), val.NewTuple("twice", a, ac, ac)},
		"expr":  {val.NewTuple("expr", a, val.NewInt(2)), val.NewTuple("expr", a, val.NewAddr("b")), val.NewTuple("expr", a, val.NewAddr("c"))},
		"agg":   {val.NewTuple("agg", a, ab, val.NewInt(1)), val.NewTuple("agg", a, ac, val.NewInt(1))},
	} {
		got := c.Tuples(pred)
		if len(got) != len(want) {
			t.Errorf("%s = %v, want %v", pred, got, want)
			continue
		}
		for _, w := range want {
			if !slices.ContainsFunc(got, w.Equal) {
				t.Errorf("%s = %v, lacks %v", pred, got, w)
			}
		}
	}
}

// TestDrainGroupsByDestination: a drain's output for other nodes comes
// out exactly as a stable sort by destination would leave it — ascending
// destinations, each one's deltas in the order they were derived — and a
// drain of mixed destinations into a caller's buffer allocates nothing.
func TestDrainGroupsByDestination(t *testing.T) {
	n := laneNode(t, PSN, nil)
	rng := rand.New(rand.NewSource(1))
	dsts := []string{"n7", "a", "n10", "b", "zz", "n1", "c", "a2"}
	outs := func(m, k int) []OutDelta {
		o := make([]OutDelta, m)
		for i := range o {
			o[i] = OutDelta{Dst: dsts[rng.Intn(k)], Delta: Insert(val.NewTuple("p", val.NewInt(int64(i))))}
		}
		return o
	}
	for _, m := range []int{0, 1, 2, 3, 17, 100, 300, 1000} {
		for _, k := range []int{1, 2, len(dsts)} {
			in := outs(m, k)
			want := slices.Clone(in)
			slices.SortStableFunc(want, func(a, b OutDelta) int { return strings.Compare(a.Dst, b.Dst) })
			n.out = slices.Clone(in)
			got := n.DrainInto(nil)
			if !slices.EqualFunc(got, want, func(a, b OutDelta) bool { return a.Dst == b.Dst && a.Delta.Tuple.Equal(b.Delta.Tuple) }) {
				t.Fatalf("%d deltas to %d destinations: grouped %v, want %v", m, k, got, want)
			}
		}
	}
	for _, m := range []int{40, 200} {
		in := outs(m, len(dsts))
		pending := make([]OutDelta, 0, len(in))
		buf := make([]OutDelta, 0, len(in))
		drain := func() {
			n.out = append(pending[:0], in...)
			buf = n.DrainInto(buf[:0])
		}
		drain()
		if got := testing.AllocsPerRun(50, drain); got != 0 {
			t.Errorf("a drain grouping %d deltas for %d destinations allocates %v objects, want 0", len(in), len(dsts), got)
		}
	}
}
