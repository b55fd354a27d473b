package netrun

// The link layer: every node-to-node link is reliable and FIFO, which is
// what PSN's correctness theorem assumes of the network. A link is keyed
// by the peer socket's UDP address (one socket per node makes that
// address exactly the peer node), so no node IDs travel on the wire.
//
// Every data datagram carries the envelope
//
//	0x7E epoch(uvarint) inc(uvarint) seq(uvarint) ack(uvarint) payload
//
// seq numbers the link's data frames from 1 within an epoch (0 marks an
// ack-only frame, which carries no payload); ack is the cumulative ack
// for the reverse direction, piggybacked on every frame; inc is the
// sending runner's random incarnation nonce. A sender keeps each frame
// in the link's queue until it is acked, has at most maxHeld of them on
// the wire, and resends the queue head every rto (doubling to rtoMax);
// a receiver accepts each seq exactly once and in order, holding up to
// maxHeld out-of-order frames — so no frame in flight is ever too far
// ahead to hold — and acks it only once the drain it fed has committed.
// The link struct below is that state machine with no I/O and no clock
// of its own (times are offsets on the runner's monotonic clock): the
// runner (netrun.go) writes the frames it returns and keeps the credit.

import (
	"encoding/binary"
	"net"
	"net/netip"
	"time"
)

// envMagic opens every data-plane datagram. The byte is disjoint from
// the engine's message kinds and the shard control-plane kinds, so a
// frame delivered to the wrong socket is rejected as corrupt rather than
// misread.
const envMagic = 0x7E

// maxHeader bounds the envelope before the payload: the magic byte and
// four uvarints.
const maxHeader = 1 + 4*binary.MaxVarintLen64

const (
	// rtoMin is the first retransmission timeout: an ack waits for its
	// drain, behind everything queued at a busy peer (DESIGN.md §16).
	rtoMin = 100 * time.Millisecond
	// rtoMax caps the doubling: a silent peer is probed, not hammered.
	rtoMax = 800 * time.Millisecond
	// maxHeld bounds a link's reorder buffer and, to match, its send
	// window: the frames past it wait in the sender's queue.
	maxHeld = 64
	// keepQueue is the retransmit queue capacity an idle link keeps, so
	// steady traffic appends without allocating.
	keepQueue = 2
)

// header is a decoded envelope.
type header struct {
	epoch, inc, seq, ack uint64
}

// appendHeader appends h's envelope to dst.
func appendHeader(dst []byte, h header) []byte {
	dst = append(dst, envMagic)
	dst = binary.AppendUvarint(dst, h.epoch)
	dst = binary.AppendUvarint(dst, h.inc)
	dst = binary.AppendUvarint(dst, h.seq)
	return binary.AppendUvarint(dst, h.ack)
}

// parseEnvelope splits one inbound datagram into header and payload. ok
// is false for anything that is not an envelope: a wrong magic byte, a
// truncated header, a data frame (seq > 0) without a payload, or an ack
// frame (seq 0) with one. The payload aliases b.
func parseEnvelope(b []byte) (h header, payload []byte, ok bool) {
	if len(b) == 0 || b[0] != envMagic {
		return header{}, nil, false
	}
	b = b[1:]
	h.epoch, b, ok = uvarint(b)
	if ok {
		h.inc, b, ok = uvarint(b)
	}
	if ok {
		h.seq, b, ok = uvarint(b)
	}
	if ok {
		h.ack, b, ok = uvarint(b)
	}
	if !ok || (h.seq == 0) != (len(b) == 0) {
		return header{}, nil, false
	}
	return h, b, true
}

func uvarint(b []byte) (uint64, []byte, bool) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, false
	}
	return v, b[n:], true
}

// addrPort is a UDP address in the form links are keyed by: IPv4
// unmapped, so a book entry and the source address of the peer's
// datagrams compare equal.
func addrPort(a *net.UDPAddr) netip.AddrPort { return unmapped(a.AddrPort()) }

func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// link is both directions of one node's link to a peer socket. It does
// no I/O: callers hold the owning node's send lock, write the frames it
// hands back, and move the runner's credit by the counts it returns.
type link struct {
	peer netip.AddrPort
	// peerInc is the incarnation nonce of the peer's frames (0 until the
	// first one arrives).
	peerInc uint64

	// Send side: next is the seq of the next data frame; queue holds the
	// unacked frames in seq order, of which the first sent have been on
	// the wire; the timeout is rtoMin doubled backoff times.
	next    uint64
	queue   []unacked
	sent    int
	backoff uint8

	// Receive side: every seq ≤ accepted has been pushed into the node,
	// and every seq ≤ delivered has also been drained and committed, so
	// acks carry delivered, never accepted; held keeps out-of-order frames
	// (copied out of the read buffer) until the gap below them fills; owed
	// is set while an ack no data frame has carried back yet is due.
	accepted  uint64
	delivered uint64
	held      map[uint64][]byte
	owed      bool
}

// unacked is one data frame awaiting its ack: the bytes as first sent
// and the time of the last transmission. Its seq is implied: the queue
// holds seqs next-len(queue) … next-1.
type unacked struct {
	frame []byte
	at    time.Duration
}

func newLink(peer netip.AddrPort) *link {
	return &link{peer: peer, next: 1}
}

// rto is the link's current retransmission timeout.
func (l *link) rto() time.Duration { return min(rtoMin<<l.backoff, rtoMax) }

// stamp numbers the next data frame and returns its seq and the
// cumulative ack it carries back. The piggybacked ack settles any owed
// one.
func (l *link) stamp() (seq, ack uint64) {
	seq = l.next
	l.next++
	l.owed = false
	return seq, l.delivered
}

// queueFrame keeps the frame just stamped until it is acked, and
// reports whether the window lets it go on the wire now; the caller
// counts it in the credit either way.
func (l *link) queueFrame(frame []byte, now time.Duration) bool {
	l.queue = append(l.queue, unacked{frame: frame, at: now})
	return l.admit(now) != nil
}

// admit returns the next queued frame the window now lets on the wire,
// nil when there is none.
func (l *link) admit(now time.Duration) []byte {
	if l.sent == len(l.queue) || l.sent == maxHeld {
		return nil
	}
	l.queue[l.sent].at = now
	l.sent++
	return l.queue[l.sent-1].frame
}

// ackTo applies a cumulative ack and returns how many queued frames it
// released. Progress resets the timeout: the peer is alive.
func (l *link) ackTo(ack uint64) int {
	head := l.next - uint64(len(l.queue))
	if ack < head {
		return 0
	}
	n := int(min(ack-head+1, uint64(l.sent)))
	l.sent -= n
	k := copy(l.queue, l.queue[n:])
	clear(l.queue[k:])
	l.queue = l.queue[:k]
	if k == 0 && cap(l.queue) > keepQueue {
		l.queue = nil
	}
	l.backoff = 0
	return n
}

// verdict is what a receiver does with an inbound data frame.
type verdict int

const (
	acceptNow verdict = iota // the next seq: push it now; commit acks it
	duplicate                // accepted before: drop
	heldBack                 // ahead of a gap: copied into the reorder buffer
	dropped                  // too far ahead, or already held: drop
)

// accept classifies data frame seq against the accepted mark; a held
// frame's payload is copied. A duplicate of a committed frame owes a
// fresh ack (the one that covered it may have been lost); a duplicate of
// a frame still in the receiver's batch owes none, since the batch's
// commit acks it.
func (l *link) accept(seq uint64, payload []byte) verdict {
	switch {
	case seq <= l.delivered:
		l.owed = true
		return duplicate
	case seq <= l.accepted:
		return duplicate
	case seq == l.accepted+1:
		l.accepted = seq
		return acceptNow
	case seq-l.accepted > maxHeld || l.held[seq] != nil:
		return dropped // a peer's window keeps the first from happening
	}
	if l.held == nil {
		l.held = map[uint64][]byte{}
	}
	l.held[seq] = append([]byte(nil), payload...)
	return heldBack
}

// nextHeld pops and accepts the held frame that is now next in order, if
// any.
func (l *link) nextHeld() (payload []byte, ok bool) {
	seq := l.accepted + 1
	payload, ok = l.held[seq]
	if ok {
		l.accepted = seq
		delete(l.held, seq)
		if len(l.held) == 0 {
			l.held = nil
		}
	}
	return payload, ok
}

// commit records that every accepted frame has been drained and its
// consequences committed and counted, so their ack may leave.
func (l *link) commit() {
	if l.accepted > l.delivered {
		l.delivered = l.accepted
		l.owed = true
	}
}

// takeAck returns the cumulative ack for a standalone ack frame, if one
// is owed.
func (l *link) takeAck() (uint64, bool) {
	owed := l.owed
	l.owed = false
	return l.delivered, owed
}

// expired returns the queue head for retransmission once it has gone
// unacked for rto, doubling rto up to rtoMax; nil when nothing is due.
func (l *link) expired(now time.Duration) []byte {
	if l.sent == 0 || now < l.queue[0].at+l.rto() {
		return nil
	}
	l.queue[0].at = now
	if l.rto() < rtoMax {
		l.backoff++
	}
	return l.queue[0].frame
}

// reset returns the link to a fresh start — seq 1 both ways, nothing
// queued, held or owed — and reports how many unacked frames it
// abandoned (the caller releases their credit).
func (l *link) reset() int {
	n := len(l.queue)
	*l = link{peer: l.peer, next: 1}
	return n
}
