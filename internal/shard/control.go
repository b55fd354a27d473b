package shard

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"ndlog/internal/engine"
	"ndlog/internal/netrun"
	"ndlog/internal/val"
)

// Control-plane wire format. Each worker holds one TCP connection to
// the coordinator, and every frame on it is one JSON object (a frame,
// through encoding/json) written behind its length:
//
//	stream := {len(uvarint) frame}*
//
// A frame carries its kind and the fields that kind uses; the rest are
// left out. Gathered tuples are the exception to plain JSON: they ride
// as one engine delta batch (base64 in the object), the data plane's
// fuzzed codec, which keeps NaN floats and arbitrary string bytes exact
// where JSON numbers and strings would not. The stream is reliable and
// ordered, so every frame is written once; a closed connection means
// the peer is gone.
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
	kindHello  frameKind = iota + 1 // worker → coord: shard's node address book
	kindBook                        // coord → worker: merged global book, epoch-stamped
	kindReady                       // worker → coord: book of that epoch installed
	kindStart                       // coord → worker: seed home facts, go
	kindIdle                        // worker → coord: activity and credit report
	kindQuery                       // coord → worker: gather a predicate
	kindTuples                      // worker → coord: a gathered predicate
	kindStop                        // coord → worker: shut down
	kindBye                         // worker → coord: final stats, exiting
	kindPong                        // coord → worker: idle-report ack (liveness) and wave mark

	// Rebalance frames (epoch cutover; see coord.go Rebalance).
	kindRelease // coord → worker: export + drop a migrating node
	kindState   // worker → coord: the node's exported state
	kindAdopt   // coord → worker: host this node, with its state
	kindAdopted // worker → coord: node bound, here is its address
	kindResume  // coord → worker: cutover done, import + rederive
	kindResumed // worker → coord: resumed in the new epoch

	// Recovery frames (crash respawn; see coord.go Respawn).
	kindRederive  // coord → worker: re-send derivations toward these nodes
	kindRederived // worker → coord: rederivation sweep done
)

// frame is one control message; a kind leaves the fields it does not
// use zero, and they are not encoded.
type frame struct {
	Kind frameKind `json:"kind"`
	// Shard identifies the sender (worker → coord frames).
	Shard int `json:"shard,omitempty"`
	// Epoch is the membership view a frame belongs to (book, ready,
	// idle, release, adopt, resume, resumed).
	Epoch uint64 `json:"epoch,omitempty"`
	// Book carries node → "host:port" entries (hello, book).
	Book map[string]string `json:"book,omitempty"`
	// Activity is the runner's activity counter (idle); Stats is the
	// runner's counters, credit included (idle, bye).
	Activity int64         `json:"activity,omitempty"`
	Stats    *netrun.Stats `json:"stats,omitempty"`
	// Mark is the coordinator's wave mark (pong) and the newest mark a
	// worker had seen when it took its report (idle).
	Mark uint64 `json:"mark,omitempty"`
	// Req, Pred: query correlation id and predicate (query); Req also
	// correlates release/state, adopt/adopted and rederive/rederived.
	Req  uint64 `json:"req,omitempty"`
	Pred string `json:"pred,omitempty"`
	// Node names the migrating node (release, adopt, adopted); Nodes
	// lists every node moved by a cutover (resume) or targeted by a
	// rederivation sweep (rederive).
	Node  string   `json:"node,omitempty"`
	Nodes []string `json:"nodes,omitempty"`
	// Addr is the migrated node's new data address (adopted).
	Addr string `json:"addr,omitempty"`
	// Tuples is one shard's gather response (tuples).
	Tuples gather `json:"tuples,omitempty"`
	// Blob is an exported node state (state, adopt).
	Blob []byte `json:"blob,omitempty"`
}

// stats is the frame's counters, zero when it carries none.
func (f frame) stats() netrun.Stats {
	if f.Stats == nil {
		return netrun.Stats{}
	}
	return *f.Stats
}

// gather is a gathered predicate. It crosses the wire as one batch of
// insertions in the engine's delta encoding, so every value comes back
// bit for bit.
type gather []val.Tuple

func (g gather) MarshalJSON() ([]byte, error) {
	ds := make([]engine.Delta, len(g))
	for i, t := range g {
		ds[i] = engine.Insert(t)
	}
	return json.Marshal(engine.EncodeDeltas(ds))
}

func (g *gather) UnmarshalJSON(b []byte) error {
	var batch []byte
	if err := json.Unmarshal(b, &batch); err != nil {
		return err
	}
	ds, err := engine.DecodeDeltas(batch)
	if err != nil {
		return err
	}
	*g = make(gather, len(ds))
	for i, d := range ds {
		(*g)[i] = d.Tuple
	}
	return nil
}

// encodeFrame marshals f.
func encodeFrame(f frame) []byte {
	b, err := json.Marshal(f)
	if err != nil {
		panic("shard: " + err.Error()) // every field of a frame marshals
	}
	return b
}

// decodeFrame unmarshals one control frame and rejects a kind it does
// not know. Decoded strings, blobs and tuples never alias b, so callers
// may reuse the receive buffer.
func decodeFrame(b []byte) (frame, error) {
	var f frame
	if err := json.Unmarshal(b, &f); err != nil {
		return frame{}, fmt.Errorf("shard: corrupt control frame: %w", err)
	}
	if f.Kind < kindHello || f.Kind > kindRederived {
		return frame{}, fmt.Errorf("shard: unknown control frame kind %d", f.Kind)
	}
	return f, nil
}

// maxFrameBytes caps the length prefix of one frame. The reader
// allocates a frame's buffer from its prefix, so without the cap a
// corrupt stream could demand gigabytes; 64 MiB is far above any
// gathered predicate or exported node state of a real deployment, even
// at base64's 4/3 inside the frame.
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
	b := binary.AppendUvarint(make([]byte, 0, binary.MaxVarintLen64+len(body)), uint64(len(body)))
	b = append(b, body...)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.conn.Write(b); err != nil {
		c.conn.Close()
	}
}
