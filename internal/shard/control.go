package shard

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"

	"ndlog/internal/netrun"
	"ndlog/internal/val"
)

// Control-plane wire format. Frames ride the same varint/TLV encoding
// as data tuples (internal/val): strings are length-prefixed, integers
// are uvarints, and gathered tuples are encoded with val.AppendTuple —
// so the control plane needs no codec of its own and benefits from the
// same fuzzed decoders. Each worker holds one TCP connection to the
// coordinator, and every frame on it is written behind its length:
//
//	stream  := {len(uvarint) frame}*
//	frame   := kind(byte) body
//	hello   := shard(uvarint) nbook(uvarint) {node(string) addr(string)}*
//	book    := epoch(uvarint) nbook(uvarint) {node(string) addr(string)}*
//	ready   := shard(uvarint) epoch(uvarint)
//	start   := ε
//	idle    := shard(uvarint) epoch(uvarint) mark(uvarint) activity(uvarint)
//	           stats
//	query   := req(uvarint) pred(string)
//	tuples  := shard(uvarint) req(uvarint) count(uvarint) tuple*
//	stop    := ε
//	bye     := shard(uvarint) stats
//	pong    := mark(uvarint)
//	release := req(uvarint) epoch(uvarint) node(string)
//	state   := shard(uvarint) req(uvarint) blob(string)
//	adopt   := req(uvarint) epoch(uvarint) node(string) blob(string)
//	adopted := shard(uvarint) req(uvarint) node(string) addr(string)
//	resume  := epoch(uvarint) nnodes(uvarint) {node(string)}*
//	resumed := shard(uvarint) epoch(uvarint)
//	rederive  := req(uvarint) epoch(uvarint) nnodes(uvarint) {node(string)}*
//	rederived := shard(uvarint) req(uvarint)
//	stats   := netrun.Stats, field by field (uvarints): sentB sentM recvB
//	           recvM dropped fenced retransmits duplicates reordered
//	           ackFrames drains outstanding
//
// Kind bytes start at 0x81, disjoint from the engine's data-message
// kinds (1, 2) and the netrun data envelope (0x7E) — a control frame
// mis-delivered to a data socket is rejected as corrupt, and vice
// versa. The stream is reliable and ordered, so every frame is written
// once; a closed connection means the peer is gone.
//
// Epochs version the membership view: the coordinator bumps the epoch
// on every rebalance, workers echo it in ready/idle/resumed frames, and
// the data plane fences datagrams from other epochs (internal/netrun).
// Marks order report waves: every pong carries the coordinator's latest
// mark, a worker answers a new mark with an immediate idle report, and
// the report echoes it — so a report echoing mark m was taken after the
// coordinator raised m (Coordinator.WaitQuiescent).
type frameKind byte

const (
	kindHello  frameKind = 0x81 // worker → coord: shard's node address book
	kindBook   frameKind = 0x82 // coord → worker: merged global book, epoch-stamped
	kindReady  frameKind = 0x83 // worker → coord: book of that epoch installed
	kindStart  frameKind = 0x84 // coord → worker: seed home facts, go
	kindIdle   frameKind = 0x85 // worker → coord: activity and credit report
	kindQuery  frameKind = 0x86 // coord → worker: gather a predicate
	kindTuples frameKind = 0x87 // worker → coord: a gathered predicate
	kindStop   frameKind = 0x89 // coord → worker: shut down
	kindBye    frameKind = 0x8A // worker → coord: final stats, exiting
	kindPong   frameKind = 0x8B // coord → worker: idle-report ack (liveness) and wave mark

	// Rebalance frames (epoch cutover; see coord.go Rebalance).
	kindRelease frameKind = 0x8C // coord → worker: export + drop a migrating node
	kindState   frameKind = 0x8D // worker → coord: the node's exported state
	kindAdopt   frameKind = 0x8E // coord → worker: host this node, with its state
	kindAdopted frameKind = 0x8F // worker → coord: node bound, here is its address
	kindResume  frameKind = 0x90 // coord → worker: cutover done, import + rederive
	kindResumed frameKind = 0x91 // worker → coord: resumed in the new epoch

	// Recovery frames (crash respawn; see coord.go Respawn).
	kindRederive  frameKind = 0x92 // coord → worker: re-send derivations toward these nodes
	kindRederived frameKind = 0x93 // worker → coord: rederivation sweep done
)

// frame is one decoded control message; unused fields are zero.
type frame struct {
	kind frameKind
	// shard identifies the sender (worker → coord frames).
	shard int
	// epoch is the membership view a frame belongs to (book, ready,
	// idle, release, adopt, resume, resumed).
	epoch uint64
	// book carries node → "host:port" entries (hello, book).
	book map[string]string
	// activity is the runner's activity counter (idle); stats is the
	// runner's counters, credit included (idle, bye).
	activity int64
	stats    netrun.Stats
	// mark is the coordinator's wave mark (pong) and the newest mark a
	// worker had seen when it took its report (idle).
	mark uint64
	// req, pred: query correlation id and predicate (query); req also
	// correlates release/state and adopt/adopted exchanges.
	req  uint64
	pred string
	// node names the migrating node (release, adopt, adopted); nodes
	// lists every node moved by a cutover (resume) or targeted by a
	// rederivation sweep (rederive).
	node  string
	nodes []string
	// addr is the migrated node's new data address (adopted).
	addr string
	// tuples is one shard's gather response (tuples).
	tuples []val.Tuple
	// blob is an exported node state (state, adopt).
	blob []byte
}

func appendUvarint(dst []byte, x uint64) []byte { return binary.AppendUvarint(dst, x) }

func appendBook(dst []byte, book map[string]string) []byte {
	dst = appendUvarint(dst, uint64(len(book)))
	// Deterministic order keeps frames byte-stable for tests.
	keys := make([]string, 0, len(book))
	for k := range book {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = val.AppendString(dst, k)
		dst = val.AppendString(dst, book[k])
	}
	return dst
}

func appendStats(dst []byte, s netrun.Stats) []byte {
	for _, v := range []int64{s.SentBytes, s.SentMessages, s.RecvBytes, s.RecvMessages,
		s.Dropped, s.Fenced, s.Retransmits, s.Duplicates, s.Reordered, s.AckFrames, s.Drains, s.Outstanding} {
		dst = appendUvarint(dst, uint64(v))
	}
	return dst
}

func appendBytes(dst, b []byte) []byte {
	dst = appendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// encodeFrame marshals f. The zero-body kinds encode as a single byte.
func encodeFrame(f frame) []byte {
	buf := []byte{byte(f.kind)}
	switch f.kind {
	case kindHello:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendBook(buf, f.book)
	case kindBook:
		buf = appendUvarint(buf, f.epoch)
		buf = appendBook(buf, f.book)
	case kindReady:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.epoch)
	case kindStart, kindStop:
	case kindPong:
		buf = appendUvarint(buf, f.mark)
	case kindIdle:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.epoch)
		buf = appendUvarint(buf, f.mark)
		buf = appendUvarint(buf, uint64(f.activity))
		buf = appendStats(buf, f.stats)
	case kindQuery:
		buf = appendUvarint(buf, f.req)
		buf = val.AppendString(buf, f.pred)
	case kindTuples:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.req)
		buf = appendUvarint(buf, uint64(len(f.tuples)))
		for _, t := range f.tuples {
			buf = val.AppendTuple(buf, t)
		}
	case kindBye:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendStats(buf, f.stats)
	case kindRelease:
		buf = appendUvarint(buf, f.req)
		buf = appendUvarint(buf, f.epoch)
		buf = val.AppendString(buf, f.node)
	case kindState:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.req)
		buf = appendBytes(buf, f.blob)
	case kindAdopt:
		buf = appendUvarint(buf, f.req)
		buf = appendUvarint(buf, f.epoch)
		buf = val.AppendString(buf, f.node)
		buf = appendBytes(buf, f.blob)
	case kindAdopted:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.req)
		buf = val.AppendString(buf, f.node)
		buf = val.AppendString(buf, f.addr)
	case kindResume:
		buf = appendUvarint(buf, f.epoch)
		buf = appendUvarint(buf, uint64(len(f.nodes)))
		for _, n := range f.nodes {
			buf = val.AppendString(buf, n)
		}
	case kindResumed:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.epoch)
	case kindRederive:
		buf = appendUvarint(buf, f.req)
		buf = appendUvarint(buf, f.epoch)
		buf = appendUvarint(buf, uint64(len(f.nodes)))
		for _, n := range f.nodes {
			buf = val.AppendString(buf, n)
		}
	case kindRederived:
		buf = appendUvarint(buf, uint64(f.shard))
		buf = appendUvarint(buf, f.req)
	}
	return buf
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = fmt.Errorf("shard: corrupt control frame (uvarint)")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *decoder) string() string {
	if d.err != nil {
		return ""
	}
	s, n, err := val.DecodeString(d.b)
	if err != nil {
		d.err = fmt.Errorf("shard: corrupt control frame: %w", err)
		return ""
	}
	d.b = d.b[n:]
	return s
}

func (d *decoder) book() map[string]string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	// Each entry is at least two bytes; cap preallocation by payload.
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("shard: corrupt control frame (book size)")
		return nil
	}
	book := make(map[string]string, n)
	for i := uint64(0); i < n; i++ {
		k := d.string()
		v := d.string()
		if d.err != nil {
			return nil
		}
		book[k] = v
	}
	return book
}

func (d *decoder) stats() netrun.Stats {
	var s netrun.Stats
	for _, v := range []*int64{&s.SentBytes, &s.SentMessages, &s.RecvBytes, &s.RecvMessages,
		&s.Dropped, &s.Fenced, &s.Retransmits, &s.Duplicates, &s.Reordered, &s.AckFrames, &s.Drains, &s.Outstanding} {
		*v = int64(d.uvarint())
	}
	return s
}

// bytes decodes a length-prefixed blob; the result never aliases the
// receive buffer (copy-on-decode, like every decoded string and tuple).
func (d *decoder) bytes() []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.b)) {
		d.err = fmt.Errorf("shard: corrupt control frame (blob size)")
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[:n])
	d.b = d.b[n:]
	return out
}

// decodeFrame unmarshals one control frame. Decoded strings and tuples
// never alias b (val's copy-on-decode invariant), so callers may reuse
// the receive buffer.
func decodeFrame(b []byte) (frame, error) {
	if len(b) == 0 {
		return frame{}, fmt.Errorf("shard: empty control frame")
	}
	f := frame{kind: frameKind(b[0])}
	d := &decoder{b: b[1:]}
	switch f.kind {
	case kindHello:
		f.shard = int(d.uvarint())
		f.book = d.book()
	case kindBook:
		f.epoch = d.uvarint()
		f.book = d.book()
	case kindReady:
		f.shard = int(d.uvarint())
		f.epoch = d.uvarint()
	case kindStart, kindStop:
	case kindPong:
		f.mark = d.uvarint()
	case kindIdle:
		f.shard = int(d.uvarint())
		f.epoch = d.uvarint()
		f.mark = d.uvarint()
		f.activity = int64(d.uvarint())
		f.stats = d.stats()
	case kindQuery:
		f.req = d.uvarint()
		f.pred = d.string()
	case kindTuples:
		f.shard = int(d.uvarint())
		f.req = d.uvarint()
		n := d.uvarint()
		if d.err == nil && n > uint64(len(d.b)) {
			d.err = fmt.Errorf("shard: corrupt control frame (tuple count)")
		}
		for i := uint64(0); d.err == nil && i < n; i++ {
			t, m, err := val.DecodeTuple(d.b)
			if err != nil {
				d.err = fmt.Errorf("shard: corrupt control frame: %w", err)
				break
			}
			d.b = d.b[m:]
			f.tuples = append(f.tuples, t)
		}
	case kindBye:
		f.shard = int(d.uvarint())
		f.stats = d.stats()
	case kindRelease:
		f.req = d.uvarint()
		f.epoch = d.uvarint()
		f.node = d.string()
	case kindState:
		f.shard = int(d.uvarint())
		f.req = d.uvarint()
		f.blob = d.bytes()
	case kindAdopt:
		f.req = d.uvarint()
		f.epoch = d.uvarint()
		f.node = d.string()
		f.blob = d.bytes()
	case kindAdopted:
		f.shard = int(d.uvarint())
		f.req = d.uvarint()
		f.node = d.string()
		f.addr = d.string()
	case kindResume:
		f.epoch = d.uvarint()
		nn := d.uvarint()
		if d.err == nil && nn > uint64(len(d.b)) {
			d.err = fmt.Errorf("shard: corrupt control frame (node count)")
		}
		for i := uint64(0); d.err == nil && i < nn; i++ {
			f.nodes = append(f.nodes, d.string())
		}
	case kindResumed:
		f.shard = int(d.uvarint())
		f.epoch = d.uvarint()
	case kindRederive:
		f.req = d.uvarint()
		f.epoch = d.uvarint()
		nn := d.uvarint()
		if d.err == nil && nn > uint64(len(d.b)) {
			d.err = fmt.Errorf("shard: corrupt control frame (node count)")
		}
		for i := uint64(0); d.err == nil && i < nn; i++ {
			f.nodes = append(f.nodes, d.string())
		}
	case kindRederived:
		f.shard = int(d.uvarint())
		f.req = d.uvarint()
	default:
		return frame{}, fmt.Errorf("shard: unknown control frame kind 0x%x", b[0])
	}
	if d.err != nil {
		return frame{}, d.err
	}
	return f, nil
}

// maxFrameBytes caps the length prefix of one frame. The reader
// allocates a frame's buffer from its prefix, so without the cap a
// corrupt stream could demand gigabytes; 64 MiB is far above any
// gathered predicate or exported node state of a real deployment.
const maxFrameBytes = 64 << 20

var errFrameTooLarge = errors.New("shard: control frame exceeds the length cap")

// readFrame reads one length-prefixed frame from a control stream. A
// prefix above maxFrameBytes is rejected before anything is allocated.
func readFrame(r *bufio.Reader) (frame, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return frame{}, err
	}
	if n > maxFrameBytes {
		return frame{}, fmt.Errorf("%w (%d > %d bytes)", errFrameTooLarge, n, maxFrameBytes)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r, b); err != nil {
		return frame{}, err
	}
	return decodeFrame(b)
}

// ctlConn is one end of a control connection. All writes go through
// send, under one mutex, so concurrent senders never interleave frames.
type ctlConn struct {
	mu   sync.Mutex
	conn net.Conn
}

// send writes f behind its length prefix. A failed write closes the
// connection: its reader then sees the close, and the peer counts as
// gone — the one signal either side acts on.
func (c *ctlConn) send(f frame) {
	body := encodeFrame(f)
	b := appendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(len(body)))
	b = append(b, body...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.conn.Write(b); err != nil {
		c.conn.Close()
	}
}
