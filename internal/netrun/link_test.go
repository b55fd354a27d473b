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
// the glue the runner puts around it — credit, batches, ack flushing.
type endpoint struct {
	l      *link
	inc    uint64
	credit int      // data frames sent and not yet acked
	batch  [][]byte // payloads accepted into the open batch, not yet committed
	got    [][]byte // payloads committed, in delivery order
}

// lossyNet joins two endpoints through a seeded filter that drops,
// duplicates and reorders datagrams: every datagram in flight is equally
// likely to arrive next.
type lossyNet struct {
	t        *testing.T
	rng      *rand.Rand
	ends     [2]*endpoint
	inflight []flight
	// batchDups counts duplicates of a frame in the receiver's open batch.
	batchDups int
}

type flight struct {
	to int
	b  []byte
}

// transmit puts one frame of end 1-to on the wire. Whatever it is — a
// data frame's piggybacked ack or an ack-only frame — its ack must not
// cover a frame its sender has accepted but not committed.
func (n *lossyNet) transmit(to int, b []byte) {
	h, _, ok := parseEnvelope(b)
	if !ok {
		n.t.Fatalf("unparsable frame %x", b)
	}
	if committed := uint64(len(n.ends[1-to].got)); h.ack > committed {
		n.t.Fatalf("end %d acks %d with only %d committed", 1-to, h.ack, committed)
	}
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

// arrive adds one datagram to end i's open batch as the runner's
// receive does.
func (n *lossyNet) arrive(i int, b []byte, now time.Duration) {
	e := n.ends[i]
	h, payload, _ := parseEnvelope(b)
	if h.inc != e.l.peerInc {
		if e.l.peerInc != 0 {
			n.t.Fatalf("incarnation changed without a restart")
		}
		e.l.peerInc = h.inc
	}
	e.credit -= e.l.ackTo(h.ack)
	for f := e.l.admit(now); f != nil; f = e.l.admit(now) {
		n.transmit(1-i, f)
	}
	if h.seq > e.l.delivered+maxHeld {
		n.t.Fatalf("frame %d arrived %d ahead of delivery: the window let it out", h.seq, h.seq-e.l.delivered)
	}
	if h.seq == 0 {
		return
	}
	inBatch, owed := h.seq > e.l.delivered && h.seq <= e.l.accepted, e.l.owed
	v := e.l.accept(h.seq, payload)
	if inBatch {
		if v != duplicate || e.l.owed != owed {
			n.t.Fatalf("a duplicate of in-batch seq %d: verdict %d, owed %v→%v", h.seq, v, owed, e.l.owed)
		}
		n.batchDups++
	}
	if v != acceptNow {
		return
	}
	for more := true; more; payload, more = e.l.nextHeld() {
		e.batch = append(e.batch, append([]byte(nil), payload...))
	}
}

// commit ends end i's batch: its drain has committed, so every accepted
// frame is delivered and may be acked.
func (n *lossyNet) commit(i int) {
	e := n.ends[i]
	e.got = append(e.got, e.batch...)
	e.batch = nil
	e.l.commit()
	if e.l.delivered != uint64(len(e.got)) {
		n.t.Fatalf("end %d delivered %d after committing %d frames", i, e.l.delivered, len(e.got))
	}
}

func (n *lossyNet) settled() bool {
	for _, e := range n.ends {
		if len(e.l.queue) > 0 || e.l.owed || len(e.batch) > 0 {
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
//
// Each receiver accepts a random run of arrivals into a batch before it
// commits them, and sends, resends and acks while a batch is open: no
// ack, piggybacked or ack-only, may cover a frame accepted but not yet
// committed, and a duplicate of a frame in the open batch owes no ack.
func TestLinkDeliversExactlyOnceInOrder(t *testing.T) {
	batchDups := 0
	for seed := int64(1); seed <= 1000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := &lossyNet{t: t, rng: rng, ends: [2]*endpoint{
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
				n.arrive(f.to, f.b, now)
				if rng.Intn(2) == 0 { // the batch ends here
					n.commit(f.to)
					n.tick(f.to, now)
				}
			default:
				now += time.Duration(rng.Int63n(int64(rtoMax)))
				for i := range n.ends {
					if rng.Intn(2) == 0 {
						n.commit(i)
					}
					n.tick(i, now)
				}
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
		batchDups += n.batchDups
	}
	if batchDups == 0 {
		t.Error("no schedule duplicated a frame inside an open batch")
	}
}

// netipPort is a loopback address on port p.
func netipPort(p uint16) netip.AddrPort {
	return netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), p)
}

// TestLinkIncarnationReset: a receiver that sees a new incarnation from
// a peer resets the link, so a sender restarted at seq 1 is delivered
// rather than dropped as a duplicate, and the frames queued for the old
// incarnation are released. A reset in the middle of a batch abandons
// the old incarnation's accepted frames unacked: the commit acks only
// what the new incarnation sent.
func TestLinkIncarnationReset(t *testing.T) {
	l := newLink(netipPort(1))
	l.peerInc = 1
	seq, _ := l.stamp()
	l.queueFrame([]byte{1}, 0)
	if l.accept(1, []byte{9}) != acceptNow || l.accept(2, []byte{9}) != acceptNow {
		t.Fatal("the first frames are not accepted in order")
	}
	if l.accept(2, []byte{9}) != duplicate || l.owed {
		t.Fatal("a duplicate of an in-batch frame is not dropped, or owes an ack")
	}
	if ack, owed := l.takeAck(); owed || ack != 0 {
		t.Fatalf("ack %d (owed %v) before the batch committed", ack, owed)
	}
	l.commit()
	if ack, owed := l.takeAck(); !owed || ack != 2 {
		t.Fatalf("the batch's commit owes ack %d (owed %v), want 2", ack, owed)
	}
	if l.accept(1, []byte{9}) != duplicate || !l.owed {
		t.Fatal("a redelivered committed frame is not a duplicate that owes an ack")
	}
	l.takeAck()

	// A batch is open with seq 3 accepted when the peer restarts.
	if l.accept(3, []byte{9}) != acceptNow {
		t.Fatal("seq 3 not accepted")
	}
	if n := l.reset(); n != 1 || seq != 1 {
		t.Fatalf("reset released %d frames, want 1", n)
	}
	if l.accept(1, []byte{9}) != acceptNow {
		t.Fatal("a restarted peer's seq 1 is not accepted after the reset")
	}
	l.commit()
	if ack, owed := l.takeAck(); !owed || ack != 1 {
		t.Fatalf("after the reset the commit owes ack %d (owed %v), want 1", ack, owed)
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
	f.Add([]byte{0x81, 1, 2, 3})                                  // not an envelope
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

// TestFrameAllocBudget pins the data path's allocations: a data frame is
// one allocation (envelope and payload share a buffer sized for both),
// an ack-only frame is none (the node's reused ack buffer), and so is a
// batch's probe and read of a queued datagram into the loop's buffer.
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

	// The runner is not started, so b's socket has no receive loop: the
	// test reads it the way one does.
	const reads = 50
	b, _ := r.node("b")
	for i := 0; i <= reads; i++ {
		if _, err := a.conn.WriteToUDPAddrPort(a.ackBuf, peer); err != nil {
			t.Fatal(err)
		}
	}
	probe := newProbe(b.conn)
	buf := make([]byte, 64<<10)
	queued := 0
	read := testing.AllocsPerRun(reads, func() {
		if probe.pending() {
			queued++
		}
		if _, _, err := b.conn.ReadFromUDPAddrPort(buf); err != nil {
			t.Fatal(err)
		}
	})
	if read != 0 {
		t.Errorf("a batch's probe and read cost %v allocations, want 0", read)
	}
	if canProbe && queued != reads+1 {
		t.Errorf("the probe saw %d of %d queued datagrams", queued, reads+1)
	}
}
