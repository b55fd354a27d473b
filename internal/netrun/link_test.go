package netrun

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net/netip"
	"testing"
	"time"

	"ndlog/internal/engine"
	"ndlog/internal/val"
)

// endpoint is one side of a socketless link: the link state machine plus
// the glue the runner puts around it — credit, delivery, ack flushing.
type endpoint struct {
	l      *link
	inc    uint64
	credit int      // data frames sent and not yet acked
	got    [][]byte // payloads delivered, in delivery order
}

// lossyNet joins two endpoints through a seeded filter that drops,
// duplicates and reorders datagrams: every datagram in flight is equally
// likely to arrive next.
type lossyNet struct {
	rng      *rand.Rand
	ends     [2]*endpoint
	inflight []flight
}

type flight struct {
	to int
	b  []byte
}

func (n *lossyNet) transmit(to int, b []byte) {
	switch p := n.rng.Float64(); {
	case p < 0.2: // dropped
	case p < 0.3: // duplicated
		n.inflight = append(n.inflight, flight{to, b}, flight{to, b})
	default:
		n.inflight = append(n.inflight, flight{to, b})
	}
}

// send stamps, queues and transmits one data frame from end `from`.
func (n *lossyNet) send(from int, payload []byte, now time.Duration) {
	e := n.ends[from]
	seq, ack := e.l.stamp()
	frame := append(appendHeader(nil, header{epoch: 1, inc: e.inc, seq: seq, ack: ack}), payload...)
	e.credit++
	if e.l.queueFrame(frame, now) {
		n.transmit(1-from, frame)
	}
}

// tick is one turn of end i's receive loop: due retransmissions, then
// owed acks.
func (n *lossyNet) tick(i int, now time.Duration) {
	e := n.ends[i]
	if f := e.l.expired(now); f != nil {
		n.transmit(1-i, f)
	}
	if ack, owed := e.l.takeAck(); owed {
		n.transmit(1-i, appendHeader(nil, header{epoch: 1, inc: e.inc, ack: ack}))
	}
}

// arrive delivers one datagram to end i as the runner's receive does.
func (n *lossyNet) arrive(t *testing.T, i int, b []byte, now time.Duration) {
	e := n.ends[i]
	h, payload, ok := parseEnvelope(b)
	if !ok {
		t.Fatalf("unparsable frame %x", b)
	}
	if h.inc != e.l.peerInc {
		if e.l.peerInc != 0 {
			t.Fatalf("incarnation changed without a restart")
		}
		e.l.peerInc = h.inc
	}
	e.credit -= e.l.ackTo(h.ack)
	for f := e.l.admit(now); f != nil; f = e.l.admit(now) {
		n.transmit(1-i, f)
	}
	if h.seq > e.l.delivered+maxHeld {
		t.Fatalf("frame %d arrived %d ahead of delivery: the window let it out", h.seq, h.seq-e.l.delivered)
	}
	if h.seq == 0 || e.l.accept(h.seq, payload) != deliverNow {
		return
	}
	for seq, more := h.seq, true; more; {
		e.got = append(e.got, append([]byte(nil), payload...))
		e.l.deliveredTo(seq)
		seq, payload, more = e.l.nextHeld()
	}
}

func (n *lossyNet) settled() bool {
	for _, e := range n.ends {
		if len(e.l.queue) > 0 || e.l.owed {
			return false
		}
	}
	return len(n.inflight) == 0
}

// TestLinkDeliversExactlyOnceInOrder is the link layer's property: over
// a thousand seeded schedules of two endpoints sending to each other
// through a filter that drops a fifth of all datagrams (acks and
// retransmissions included), duplicates a tenth and delivers the rest in
// random order, every data frame is delivered exactly once and in order,
// each side's credit returns to zero, and the send window keeps every
// frame within the receiver's reorder buffer. Some schedules send more
// frames than the window admits at once, so frames wait in the queue
// for acks to open it.
func TestLinkDeliversExactlyOnceInOrder(t *testing.T) {
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := &lossyNet{rng: rng, ends: [2]*endpoint{
			{l: newLink(netipPort(1)), inc: 11},
			{l: newLink(netipPort(2)), inc: 22},
		}}
		frames, sendP := 1+rng.Intn(30), 0.3
		if seed%10 == 0 { // bursts that fill the window
			frames, sendP = maxHeld+1+rng.Intn(40), 0.8
		}
		var want [2][][]byte
		for i := range want {
			for k := 0; k < frames; k++ {
				p := binary.AppendUvarint([]byte{byte(i)}, uint64(k))
				want[i] = append(want[i], p)
			}
		}
		sent := [2]int{}
		now := time.Duration(0)
		for step := 0; ; step++ {
			if step > 200_000 {
				t.Fatalf("seed %d: no fixpoint after %d steps", seed, step)
			}
			pending := sent[0] < frames || sent[1] < frames
			if !pending && n.settled() {
				break
			}
			switch p := rng.Float64(); {
			case pending && p < sendP:
				i := rng.Intn(2)
				if sent[i] == frames {
					i = 1 - i
				}
				n.send(i, want[i][sent[i]], now)
				sent[i]++
			case len(n.inflight) > 0 && p < 0.9:
				k := rng.Intn(len(n.inflight))
				f := n.inflight[k]
				n.inflight = append(n.inflight[:k], n.inflight[k+1:]...)
				n.arrive(t, f.to, f.b, now)
				n.tick(f.to, now)
			default:
				now += time.Duration(rng.Int63n(int64(rtoMax)))
				n.tick(0, now)
				n.tick(1, now)
			}
		}
		for i, e := range n.ends {
			if e.credit != 0 {
				t.Fatalf("seed %d: end %d credit %d after settling", seed, i, e.credit)
			}
			if len(e.got) != frames {
				t.Fatalf("seed %d: end %d delivered %d of %d frames", seed, i, len(e.got), frames)
			}
			for k, p := range e.got {
				if !bytes.Equal(p, want[1-i][k]) {
					t.Fatalf("seed %d: end %d delivery %d is %x, want %x", seed, i, k, p, want[1-i][k])
				}
			}
		}
	}
}

// netipPort is a loopback address on port p.
func netipPort(p uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), p)
}

// TestLinkIncarnationReset: a receiver that sees a new incarnation from
// a peer resets the link, so a sender restarted at seq 1 is delivered
// rather than dropped as a duplicate, and the frames queued for the old
// incarnation are released.
func TestLinkIncarnationReset(t *testing.T) {
	l := newLink(netipPort(1))
	l.peerInc = 1
	seq, _ := l.stamp()
	l.queueFrame([]byte{1}, 0)
	if l.accept(1, []byte{9}) != deliverNow {
		t.Fatal("first frame not deliverable")
	}
	l.deliveredTo(1)
	if l.accept(1, []byte{9}) != duplicate {
		t.Fatal("a redelivered frame is not a duplicate")
	}
	if n := l.reset(); n != 1 || seq != 1 {
		t.Fatalf("reset released %d frames, want 1", n)
	}
	if l.accept(1, []byte{9}) != deliverNow {
		t.Fatal("a restarted peer's seq 1 is not deliverable after the reset")
	}
	if s, _ := l.stamp(); s != 1 {
		t.Fatalf("the reset link numbers from %d, want 1", s)
	}
}

// FuzzLinkEnvelope: the envelope parser never panics, rejects every
// truncated header, and what it accepts round-trips through appendHeader.
func FuzzLinkEnvelope(f *testing.F) {
	data := append(appendHeader(nil, header{epoch: 3, inc: 1 << 31, seq: 7, ack: 5}), 1, 2, 3)
	f.Add(data)
	f.Add(appendHeader(nil, header{epoch: 3, inc: 9, ack: 300}))
	f.Add(data[:3])
	f.Add(appendHeader(nil, header{epoch: 1, inc: 1, seq: 1}))    // data frame without payload
	f.Add(append(appendHeader(nil, header{epoch: 1, inc: 1}), 4)) // ack frame with payload
	f.Add([]byte{envMagic, 0x80, 0x00, 1, 1, 1, 9})               // non-canonical uvarint
	f.Add([]byte{0x81, 1, 2, 3})                                  // a control frame
	f.Fuzz(func(t *testing.T, b []byte) {
		h, payload, ok := parseEnvelope(b)
		if !ok {
			return
		}
		hdr := appendHeader(nil, h)
		h2, p2, ok := parseEnvelope(append(hdr, payload...))
		if !ok || h2 != h || !bytes.Equal(p2, payload) {
			t.Fatalf("round trip of %x: %+v %x, want %+v %x", b, h2, p2, h, payload)
		}
		for cut := 0; cut < len(hdr); cut++ {
			if _, _, ok := parseEnvelope(hdr[:cut]); ok {
				t.Fatalf("header %x truncated to %d bytes parsed", hdr, cut)
			}
		}
	})
}

// TestFrameAllocBudget pins the send path's allocations: a data frame is
// one allocation (envelope and payload share a buffer sized for both),
// and an ack-only frame is none (the node's reused ack buffer).
func TestFrameAllocBudget(t *testing.T) {
	r, err := New(mustProg(t), []string{"a", "b"}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	a, _ := r.node("a")
	peer := addrPort(r.Addr("b"))
	path := val.NewTuple("path", val.NewAddr("a"), val.NewAddr("b"), val.NewAddr("c"),
		val.NewList(val.NewAddr("a"), val.NewAddr("c"), val.NewAddr("b")), val.NewFloat(2))
	outs := []engine.OutDelta{{Dst: "b", Delta: engine.Insert(path)}}

	data := testing.AllocsPerRun(100, func() {
		a.sendMu.Lock()
		r.dispatch(a, outs)
		l := a.linkLocked(peer)
		r.release(int64(l.ackTo(l.next - 1)))
		a.sendMu.Unlock()
	})
	if data != 1 {
		t.Errorf("a data frame costs %v allocations, want 1", data)
	}
	ack := testing.AllocsPerRun(100, func() {
		a.sendMu.Lock()
		a.linkLocked(peer).owed = true
		a.sendMu.Unlock()
		r.tick(a, r.clock())
	})
	if ack != 0 {
		t.Errorf("an ack frame costs %v allocations, want 0", ack)
	}
	if s := r.Stats(); s.AckFrames == 0 || s.Outstanding != 0 {
		t.Errorf("stats after the budget runs: %+v", s)
	}
}
