package netrun

import (
	"net"
	"reflect"
	"sort"
	"testing"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/parser"
	"ndlog/internal/programs"
)

var figure2 = []struct {
	a, b string
	cost float64
}{
	{"a", "b", 5}, {"a", "c", 1}, {"c", "b", 1}, {"b", "d", 1}, {"e", "a", 1},
}

func buildRunner(t *testing.T) *Runner {
	t.Helper()
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	r, err := New(prog, []string{"a", "b", "c", "d", "e"}, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestUDPShortestPath runs the paper's shortest-path query over real UDP
// sockets on localhost and checks the known answers of the Figure 2
// network. The links are reliable, so the first quiescence is the
// fixpoint: no retry.
func TestUDPShortestPath(t *testing.T) {
	r := buildRunner(t)
	defer r.Close()
	r.Start()
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("cluster did not go idle")
	}
	got := map[string]bool{}
	for _, k := range r.Tuples("shortestPath") {
		got[k] = true
	}
	for _, k := range []string{
		"shortestPath(a,b,[a,c,b],2)",
		"shortestPath(a,c,[a,c],1)",
		"shortestPath(e,d,[e,a,c,b,d],4)",
	} {
		if !got[k] {
			t.Errorf("missing %s; have %v", k, r.Tuples("shortestPath"))
		}
	}
	if r.Messages() == 0 || r.Bytes() == 0 {
		t.Error("no UDP traffic recorded")
	}
	// Results live at their home nodes.
	if got := r.NodeTuples("e", "shortestPath"); len(got) == 0 {
		t.Error("node e has no local results")
	}
	if got := r.NodeTuples("zzz", "shortestPath"); got != nil {
		t.Error("unknown node should return nil")
	}
}

// TestSeedTwiceCountsOnce: a second Seed pushes no fact again, so
// deleting links a↔c and c↔b afterwards leaves the runner at Central's
// 12 shortestPath rows. Facts pushed twice would count twice, and the
// deleted links, with every path through them, would stay.
func TestSeedTwiceCountsOnce(t *testing.T) {
	r := buildRunner(t)
	defer r.Close()
	r.Start()
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("cluster did not go idle")
	}
	r.Seed()
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	c, err := engine.NewCentral(prog, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	c.LoadFacts()
	for _, l := range [][2]string{{"a", "c"}, {"c", "a"}, {"c", "b"}, {"b", "c"}} {
		link := programs.LinkFact("link", l[0], l[1], 1)
		if err := r.Inject(l[0], engine.Deletion(link)); err != nil {
			t.Fatal(err)
		}
		c.Delete(link)
	}
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("deletions did not settle")
	}
	var want []string
	for _, tp := range c.QueryResults() {
		want = append(want, tp.String())
	}
	got := r.Tuples("shortestPath")
	sort.Strings(got)
	if len(want) != 12 || !reflect.DeepEqual(got, want) {
		t.Errorf("after deleting a↔c and c↔b the runner holds %d shortestPath rows %v, want Central's %d %v", len(got), got, len(want), want)
	}
}

// TestUDPLinkUpdate injects a link cost update into the live UDP cluster
// and watches the routes recompute.
func TestUDPLinkUpdate(t *testing.T) {
	r := buildRunner(t)
	defer r.Close()
	r.Start()
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("cluster did not go idle")
	}
	// link(a,b): 5 -> 1; a's best route to b becomes the direct link.
	r.Inject("a", engine.Insert(programs.LinkFact("link", "a", "b", 1)))
	r.Inject("b", engine.Insert(programs.LinkFact("link", "b", "a", 1)))
	if !r.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("update did not settle")
	}
	found := false
	for _, k := range r.NodeTuples("a", "shortestPath") {
		found = found || k == "shortestPath(a,b,[a,b],1)"
	}
	if !found {
		t.Fatalf("updated route missing: %v", r.NodeTuples("a", "shortestPath"))
	}
}

// TestShardedRunners splits the Figure 2 deployment across two runners
// in one process — the netrun half of the multi-process story
// (internal/shard adds the control plane and real process boundaries).
// Each runner hosts a subset of the nodes and reaches the rest through
// remote address-book entries.
func TestShardedRunners(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	opts := engine.Options{AggSel: true}
	r1, err := NewConfigured(prog, map[string]string{"a": "", "b": "", "c": ""}, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Close()
	r2, err := NewConfigured(prog, map[string]string{"d": "", "e": ""}, Config{}, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r1.LocalIDs(); len(got) != 3 || got[0] != "a" {
		t.Fatalf("LocalIDs = %v", got)
	}
	// Cross-wire the books.
	for _, id := range r2.LocalIDs() {
		if err := r1.SetRemote(id, r2.Addr(id).String()); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range r1.LocalIDs() {
		if err := r2.SetRemote(id, r1.Addr(id).String()); err != nil {
			t.Fatal(err)
		}
	}
	r1.Start()
	r2.Start()
	// Each runner's credit sees only its own frames; traffic between
	// them keeps the idle window in play, and both must be idle at once.
	if !r1.WaitQuiescent(300*time.Millisecond, 15*time.Second) ||
		!r2.WaitQuiescent(300*time.Millisecond, 15*time.Second) {
		t.Fatal("sharded runners did not go idle")
	}
	want := "shortestPath(e,d,[e,a,c,b,d],4)"
	found := false
	for _, k := range r2.NodeTuples("e", "shortestPath") {
		found = found || k == want
	}
	if !found {
		t.Fatalf("cross-runner route missing: %v", r2.NodeTuples("e", "shortestPath"))
	}
	// Every result converged: the two runners' rows together are the
	// centralized fixpoint.
	c, err := engine.NewCentral(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	c.LoadFacts()
	var central []string
	for _, tu := range c.Tuples("shortestPath") {
		central = append(central, tu.Key())
	}
	if got := sorted(append(r1.Tuples("shortestPath"), r2.Tuples("shortestPath")...)); !reflect.DeepEqual(got, sorted(central)) {
		t.Errorf("sharded fixpoint %v, want the central %v", got, central)
	}
	s1, s2 := r1.Stats(), r2.Stats()
	if s1.SentMessages == 0 || s2.SentMessages == 0 {
		t.Error("expected traffic from both runners")
	}
	if s1.Dropped != 0 || s2.Dropped != 0 {
		t.Errorf("dropped deltas: %d, %d", s1.Dropped, s2.Dropped)
	}
	if len(r1.TupleValues("shortestPath")) == 0 {
		t.Error("TupleValues empty on runner 1")
	}
}

// TestDroppedAccounting checks that deltas bound for a node absent from
// the address book are counted, not silently discarded.
func TestDroppedAccounting(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	// Host only node a: everything it derives for b/c/e has no route.
	r, err := NewConfigured(prog, map[string]string{"a": ""}, Config{}, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()
	r.WaitQuiescent(200*time.Millisecond, 5*time.Second)
	if r.Stats().Dropped == 0 {
		t.Error("expected dropped deltas for unrouted destinations")
	}
}

// TestEpochFencing proves the stale-epoch fence: a data datagram
// carrying an old membership epoch is counted but neither applied nor
// acked; a current-epoch datagram with the same payload is applied.
func TestEpochFencing(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewConfigured(prog, map[string]string{"a": ""}, Config{}, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetEpoch(2) // post-cutover view
	r.Start()

	src, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	payload := engine.AppendDeltas(nil, []engine.Delta{
		engine.Insert(programs.LinkFact("link", "a", "zz", 9)),
	})
	send := func(epoch uint64) {
		frame := appendHeader(nil, header{epoch: epoch, inc: 7, seq: 1})
		frame = append(frame, payload...)
		if _, err := src.WriteToUDP(frame, r.Addr("a")); err != nil {
			t.Fatal(err)
		}
	}

	// Stale epoch: fenced, counted, never applied.
	send(1)
	deadline := time.Now().Add(5 * time.Second)
	for r.Stats().Fenced == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	s := r.Stats()
	if s.Fenced != 1 {
		t.Fatalf("fenced = %d, want 1", s.Fenced)
	}
	if s.RecvMessages != 1 {
		t.Fatalf("fenced datagram not counted: recv = %d", s.RecvMessages)
	}
	for _, k := range r.NodeTuples("a", "link") {
		if k == "link(a,zz,9)" {
			t.Fatal("stale-epoch tuple was applied")
		}
	}

	// Current epoch: the same payload lands.
	send(2)
	found := false
	for time.Now().Before(deadline) && !found {
		for _, k := range r.NodeTuples("a", "link") {
			if k == "link(a,zz,9)" {
				found = true
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !found {
		t.Fatalf("current-epoch tuple missing: %v", r.NodeTuples("a", "link"))
	}
	if got := r.Stats().Fenced; got != 1 {
		t.Fatalf("fenced = %d after current-epoch send, want 1", got)
	}
}

// TestAddRemoveNode exercises live adoption and release: a node joins a
// running socket set, serves, exports its state, and leaves.
func TestAddRemoveNode(t *testing.T) {
	prog, err := parser.Parse(programs.ShortestPath(""))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range figure2 {
		prog.Facts = append(prog.Facts,
			programs.LinkFact("link", l.a, l.b, l.cost),
			programs.LinkFact("link", l.b, l.a, l.cost))
	}
	r, err := NewConfigured(prog, map[string]string{"a": ""}, Config{}, engine.Options{AggSel: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Start()

	if err := r.AddNode("a", ""); err == nil {
		t.Error("duplicate AddNode accepted")
	}
	if err := r.AddNode("b", ""); err != nil {
		t.Fatal(err)
	}
	if got := r.LocalIDs(); len(got) != 2 || got[1] != "b" {
		t.Fatalf("LocalIDs = %v", got)
	}
	if r.Addr("b") == nil {
		t.Fatal("adopted node has no address")
	}
	r.Seed() // b's home facts seed through the normal path
	r.WaitQuiescent(200*time.Millisecond, 5*time.Second)
	if got := r.NodeTuples("b", "link"); len(got) == 0 {
		t.Fatalf("adopted node has no link facts: %v", got)
	}

	// Export, remove, re-adopt elsewhere-style: import restores state.
	blob, err := r.ExportState("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.RemoveNode("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ExportState("b"); err == nil {
		t.Error("export of a removed node succeeded")
	}
	if err := r.RemoveNode("b"); err == nil {
		t.Error("double remove succeeded")
	}
	if got := r.LocalIDs(); len(got) != 1 {
		t.Fatalf("LocalIDs after remove = %v", got)
	}

	if err := r.AddNode("b", ""); err != nil {
		t.Fatal(err)
	}
	if err := r.ImportNode("b", blob); err != nil {
		t.Fatal(err)
	}
	if got := r.NodeTuples("b", "link"); len(got) == 0 {
		t.Fatalf("imported node has no link facts: %v", got)
	}
	if err := r.ImportNode("zz", blob); err == nil {
		t.Error("import into unknown node succeeded")
	}
	if err := r.ImportNode("b", []byte{1, 2, 3}); err == nil {
		t.Error("corrupt import succeeded")
	}
}

func TestInjectUnknownNode(t *testing.T) {
	r := buildRunner(t)
	defer r.Close()
	if err := r.Inject("nope", engine.Insert(programs.LinkFact("link", "x", "y", 1))); err == nil {
		t.Error("expected error for unknown node")
	}
	if r.Addr("a") == nil {
		t.Error("node a should have a bound address")
	}
}
