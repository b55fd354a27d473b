package simnet

import (
	"fmt"
	"testing"
)

// recorder is a Handler that logs deliveries and timer fires.
type recorder struct {
	deliveries []delivery
	timers     []string
	onMsg      func(now float64, from NodeID, payload []byte)
}

type delivery struct {
	at      float64
	from    NodeID
	payload string
}

func (r *recorder) HandleMessage(now float64, from NodeID, payload []byte) {
	r.deliveries = append(r.deliveries, delivery{at: now, from: from, payload: string(payload)})
	if r.onMsg != nil {
		r.onMsg(now, from, payload)
	}
}

func (r *recorder) HandleTimer(now float64, key string) {
	r.timers = append(r.timers, fmt.Sprintf("%s@%g", key, now))
}

func twoNodes(t *testing.T) (*Sim, *recorder, *recorder) {
	t.Helper()
	s := New(1)
	ra, rb := &recorder{}, &recorder{}
	s.AddNode("a", ra)
	s.AddNode("b", rb)
	if err := s.AddLink("a", "b", 0.010, 0); err != nil {
		t.Fatal(err)
	}
	return s, ra, rb
}

func TestSendDeliversWithLatency(t *testing.T) {
	s, _, rb := twoNodes(t)
	if err := s.Send("a", "b", []byte("hi"), 0); err != nil {
		t.Fatal(err)
	}
	if !s.RunToQuiescence(100) {
		t.Fatal("did not quiesce")
	}
	if len(rb.deliveries) != 1 {
		t.Fatalf("deliveries = %v", rb.deliveries)
	}
	d := rb.deliveries[0]
	if d.at != 0.010 || d.from != "a" || d.payload != "hi" {
		t.Errorf("delivery = %+v", d)
	}
	if s.Messages() != 1 {
		t.Errorf("messages = %d", s.Messages())
	}
	if s.Bytes() != int64(2+HeaderBytes) {
		t.Errorf("bytes = %d", s.Bytes())
	}
	if s.LastDelivery() != 0.010 {
		t.Errorf("last delivery = %v", s.LastDelivery())
	}
}

func TestSendErrors(t *testing.T) {
	s, _, _ := twoNodes(t)
	if err := s.Send("a", "zzz", nil, 0); err == nil {
		t.Error("send to unlinked node should fail")
	}
	if err := s.AddLink("a", "zzz", 1, 0); err == nil {
		t.Error("link to unknown node should fail")
	}
	if err := s.SetLatency("a", "zzz", 1); err == nil {
		t.Error("SetLatency on missing link should fail")
	}
}

func TestFIFOOrderingWithVaryingDelays(t *testing.T) {
	s, _, rb := twoNodes(t)
	// First message has a big sender delay; second is sent immediately
	// after with no delay. FIFO requires the second not to overtake.
	s.Send("a", "b", []byte("first"), 0.100)
	s.Send("a", "b", []byte("second"), 0)
	s.RunToQuiescence(100)
	if len(rb.deliveries) != 2 {
		t.Fatalf("deliveries = %v", rb.deliveries)
	}
	if rb.deliveries[0].payload != "first" || rb.deliveries[1].payload != "second" {
		t.Errorf("FIFO violated: %v", rb.deliveries)
	}
	if rb.deliveries[1].at < rb.deliveries[0].at {
		t.Errorf("arrival times out of order: %v", rb.deliveries)
	}
}

func TestBidirectionalAndNeighbors(t *testing.T) {
	s, ra, _ := twoNodes(t)
	s.Send("b", "a", []byte("x"), 0)
	s.RunToQuiescence(10)
	if len(ra.deliveries) != 1 {
		t.Error("reverse direction failed")
	}
	if !s.HasLink("a", "b") || !s.HasLink("b", "a") {
		t.Error("links should be bidirectional")
	}
	if n := s.Neighbors("a"); len(n) != 1 || n[0] != "b" {
		t.Errorf("neighbors = %v", n)
	}
	s.RemoveLink("a", "b")
	if s.HasLink("a", "b") || s.HasLink("b", "a") {
		t.Error("RemoveLink should drop both directions")
	}
}

func TestTimers(t *testing.T) {
	s, ra, _ := twoNodes(t)
	s.ScheduleTimer("a", 0.5, "tick")
	s.ScheduleTimer("a", 0.2, "tock")
	s.RunToQuiescence(10)
	if len(ra.timers) != 2 || ra.timers[0] != "tock@0.2" || ra.timers[1] != "tick@0.5" {
		t.Errorf("timers = %v", ra.timers)
	}
}

func TestScheduleFunc(t *testing.T) {
	s, _, _ := twoNodes(t)
	var fired float64 = -1
	s.ScheduleFunc(1.5, func(now float64) { fired = now })
	s.RunToQuiescence(10)
	if fired != 1.5 {
		t.Errorf("func fired at %v", fired)
	}
}

func TestRunHorizon(t *testing.T) {
	s, ra, _ := twoNodes(t)
	s.ScheduleTimer("a", 1.0, "early")
	s.ScheduleTimer("a", 5.0, "late")
	n := s.Run(2.0)
	if n != 1 || len(ra.timers) != 1 {
		t.Errorf("Run processed %d events, timers=%v", n, ra.timers)
	}
	if s.Now() != 2.0 {
		t.Errorf("now = %v, want the horizon 2", s.Now())
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
	s.Run(10)
	if len(ra.timers) != 2 {
		t.Errorf("late timer not fired: %v", ra.timers)
	}
}

// TestRunAdvancesClockPastQuietGap: Run leaves the clock at its horizon
// even while a later event waits, so a Run(Now()+1) poll loop crosses a
// quiet gap longer than its step instead of stalling before it.
func TestRunAdvancesClockPastQuietGap(t *testing.T) {
	s, _, _ := twoNodes(t)
	fired := false
	s.ScheduleFunc(5, func(float64) { fired = true })
	if n := s.Run(1); n != 0 {
		t.Fatalf("Run(1) processed %d events, want 0", n)
	}
	if s.Now() != 1 {
		t.Fatalf("now = %v after Run(1), want 1", s.Now())
	}
	for i := 0; i < 10 && !fired; i++ {
		s.Run(s.Now() + 1)
	}
	if !fired || s.Now() != 5 {
		t.Fatalf("a Run(Now()+1) loop: fired=%v now=%v, want the t=5 event at 5", fired, s.Now())
	}
}

func TestLoopback(t *testing.T) {
	s, ra, _ := twoNodes(t)
	s.SendLoopback("a", []byte("self"), 0.001)
	s.RunToQuiescence(10)
	if len(ra.deliveries) != 1 || ra.deliveries[0].from != "a" {
		t.Errorf("loopback = %v", ra.deliveries)
	}
}

func TestLoss(t *testing.T) {
	s := New(7)
	ra, rb := &recorder{}, &recorder{}
	s.AddNode("a", ra)
	s.AddNode("b", rb)
	s.AddLink("a", "b", 0.001, 0.5)
	for i := 0; i < 1000; i++ {
		s.Send("a", "b", []byte{byte(i)}, 0)
	}
	s.RunToQuiescence(10000)
	got := len(rb.deliveries)
	if got < 350 || got > 650 {
		t.Errorf("with 50%% loss, delivered %d of 1000", got)
	}
	if s.Dropped() != int64(1000-got) {
		t.Errorf("dropped = %d, delivered = %d", s.Dropped(), got)
	}
}

func TestObserverAndAccounting(t *testing.T) {
	s, _, _ := twoNodes(t)
	var total int
	s.Observe(func(now float64, from, to NodeID, bytes int) { total += bytes })
	s.Send("a", "b", make([]byte, 100), 0)
	s.Send("b", "a", make([]byte, 50), 0)
	s.RunToQuiescence(10)
	want := 100 + HeaderBytes + 50 + HeaderBytes
	if total != want || s.Bytes() != int64(want) {
		t.Errorf("observed %d, accounted %d, want %d", total, s.Bytes(), want)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []delivery {
		s := New(42)
		ra, rb := &recorder{}, &recorder{}
		s.AddNode("a", ra)
		s.AddNode("b", rb)
		s.AddLink("a", "b", 0.002, 0.1)
		rb.onMsg = func(now float64, from NodeID, payload []byte) {
			if len(payload) < 10 {
				s.Send("b", "a", append(payload, 'x'), 0.001)
			}
		}
		ra.onMsg = func(now float64, from NodeID, payload []byte) {
			if len(payload) < 10 {
				s.Send("a", "b", append(payload, 'y'), 0.001)
			}
		}
		s.Send("a", "b", []byte("go"), 0)
		s.RunToQuiescence(1000)
		return append(ra.deliveries, rb.deliveries...)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestEqualTimeFIFOSeq(t *testing.T) {
	// Two zero-latency messages sent in order must arrive in order.
	s := New(1)
	ra, rb := &recorder{}, &recorder{}
	s.AddNode("a", ra)
	s.AddNode("b", rb)
	s.AddLink("a", "b", 0, 0)
	s.Send("a", "b", []byte("1"), 0)
	s.Send("a", "b", []byte("2"), 0)
	s.RunToQuiescence(10)
	if rb.deliveries[0].payload != "1" || rb.deliveries[1].payload != "2" {
		t.Errorf("same-time ordering violated: %v", rb.deliveries)
	}
}

func TestRunToQuiescenceSafetyValve(t *testing.T) {
	s, ra, _ := twoNodes(t)
	// Self-perpetuating timer: never quiesces.
	var rearm func(now float64)
	rearm = func(now float64) { s.ScheduleFunc(0.1, rearm) }
	s.ScheduleFunc(0.1, rearm)
	if s.RunToQuiescence(50) {
		t.Error("should not quiesce")
	}
	_ = ra
}

func TestPartitionHeal(t *testing.T) {
	s, _, rb := twoNodes(t)
	if err := s.SetDown("a", "b", true); err != nil {
		t.Fatal(err)
	}
	if !s.HasLink("a", "b") {
		t.Fatal("partition removed the link; it should only mark it down")
	}
	if !s.Down("a", "b") || !s.Down("b", "a") {
		t.Fatal("down flag not set on both directions")
	}
	if err := s.Send("a", "b", []byte("lost"), 0); err != nil {
		t.Fatal(err)
	}
	s.RunToQuiescence(100)
	if len(rb.deliveries) != 0 || s.Dropped() != 1 {
		t.Fatalf("down link delivered: %v (dropped=%d)", rb.deliveries, s.Dropped())
	}
	s.Heal()
	if err := s.Send("a", "b", []byte("back"), 0); err != nil {
		t.Fatal(err)
	}
	s.RunToQuiescence(100)
	if len(rb.deliveries) != 1 || rb.deliveries[0].payload != "back" {
		t.Fatalf("healed link deliveries = %v", rb.deliveries)
	}
}

func TestPartitionGroups(t *testing.T) {
	s := New(1)
	rs := map[NodeID]*recorder{}
	for _, id := range []NodeID{"a", "b", "c", "d"} {
		rs[id] = &recorder{}
		s.AddNode(id, rs[id])
	}
	// Square: a-b, c-d inside the halves; a-c, b-d across.
	for _, e := range [][2]NodeID{{"a", "b"}, {"c", "d"}, {"a", "c"}, {"b", "d"}} {
		if err := s.AddLink(e[0], e[1], 0.01, 0); err != nil {
			t.Fatal(err)
		}
	}
	s.Partition("a", "b")
	if !s.Down("a", "c") || !s.Down("b", "d") {
		t.Fatal("cross-partition links should be down")
	}
	if s.Down("a", "b") || s.Down("c", "d") {
		t.Fatal("intra-partition links should stay up")
	}
	s.Isolate("a")
	if !s.Down("a", "b") {
		t.Fatal("Isolate should take every link of the node down")
	}
	s.Restore("a")
	if s.Down("a", "b") || s.Down("a", "c") {
		t.Fatal("Restore should bring the node's links back")
	}
}

func TestJitterDeterministicAndFIFO(t *testing.T) {
	run := func(seed int64) []float64 {
		s := New(seed)
		rb := &recorder{}
		s.AddNode("a", &recorder{})
		s.AddNode("b", rb)
		if err := s.AddLink("a", "b", 0.010, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.SetJitter("a", "b", 0.050); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := s.Send("a", "b", []byte{byte(i)}, 0); err != nil {
				t.Fatal(err)
			}
		}
		s.RunToQuiescence(1000)
		out := make([]float64, 0, len(rb.deliveries))
		for i, d := range rb.deliveries {
			if d.payload != string([]byte{byte(i)}) {
				t.Fatalf("jitter broke FIFO: delivery %d is %q", i, d.payload)
			}
			out = append(out, d.at)
		}
		return out
	}
	a, b := run(7), run(7)
	jittered := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different arrival %d: %g vs %g", i, a[i], b[i])
		}
		if a[i] != 0.010 {
			jittered = true
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals out of order: %g after %g", a[i], a[i-1])
		}
	}
	if !jittered {
		t.Fatal("jitter knob had no effect on arrivals")
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter schedules")
	}
}

func TestSetLoss(t *testing.T) {
	s, _, rb := twoNodes(t)
	if err := s.SetLoss("a", "b", 1.0); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("a", "b", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	s.RunToQuiescence(100)
	if len(rb.deliveries) != 0 {
		t.Fatal("loss=1 delivered a message")
	}
	if err := s.SetLoss("a", "b", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.Send("a", "b", []byte("y"), 0); err != nil {
		t.Fatal(err)
	}
	s.RunToQuiescence(100)
	if len(rb.deliveries) != 1 {
		t.Fatal("loss=0 did not deliver")
	}
}

// nop is a Handler that keeps nothing.
type nop struct{}

func (nop) HandleMessage(float64, NodeID, []byte) {}
func (nop) HandleTimer(float64, string)           {}

// TestSendStepAllocBudget: the queue holds events by value, so a send
// and its delivery allocate nothing once the queue has its capacity.
func TestSendStepAllocBudget(t *testing.T) {
	s := New(1)
	s.AddNode("a", nop{})
	s.AddNode("b", nop{})
	if err := s.AddLink("a", "b", 0.010, 0); err != nil {
		t.Fatal(err)
	}
	payload := []byte("x")
	got := testing.AllocsPerRun(100, func() {
		s.Send("a", "b", payload, 0)
		s.ScheduleTimer("a", 0.001, "t")
		s.Step()
		s.Step()
	})
	if got != 0 {
		t.Errorf("Send+ScheduleTimer+Step allocates %v objects, want 0", got)
	}
	if s.Messages() != 101 {
		t.Errorf("delivered %d messages, want 101", s.Messages())
	}
}

// TestQueueRetentionBounded: the event queue's backing array follows
// what is queued — halved below a quarter full, dropped once empty —
// down to minQueueCap, so a burst leaves nothing behind; events still
// leave in time order.
func TestQueueRetentionBounded(t *testing.T) {
	s := New(1)
	var fired []float64
	for i := 0; i < 10_000; i++ {
		d := float64((i * 7919) % 10_000)
		s.ScheduleFunc(d, func(now float64) { fired = append(fired, now) })
	}
	peak := cap(s.queue)
	for s.Pending() > 100 {
		s.Step()
	}
	if c := cap(s.queue); c > 4*100*2 {
		t.Errorf("with 100 events queued the array holds %d (peak %d)", c, peak)
	}
	s.RunToQuiescence(1 << 20)
	if cap(s.queue) > minQueueCap {
		t.Errorf("an empty queue keeps a %d-event array, bound is %d", cap(s.queue), minQueueCap)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("event %d fired at %g, after one at %g", i, fired[i], fired[i-1])
		}
	}
	if len(fired) != 10_000 {
		t.Errorf("fired %d events, want 10000", len(fired))
	}
}
