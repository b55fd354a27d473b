// Package engine evaluates NDlog programs. It implements the execution
// model of the paper: rule strands compiled from localized rules,
// semi-naïve (SN) and pipelined semi-naïve (PSN) evaluation — one drain
// loop over batches of different sizes — incremental view maintenance
// under insertions,
// deletions and updates via the count algorithm, incremental aggregates,
// and the optimizations of Section 5 (aggregate selections, periodic
// aggregate selections, query-result caching hooks, opportunistic
// message sharing).
//
// Ownership: a Node is single-threaded — drivers (Cluster, netrun, the
// shard worker) must serialize SetNow/Push/Drain/Tuples per node, and
// the node's string table is part of that state (decode through it only
// under the same discipline). Tuples are immutable and allocated once,
// by whoever keeps them; a tuple nobody keeps — a retraction, or a head
// its node encodes for another — is carved from a shared chunk instead
// (DESIGN.md §3). A decoded tuple never aliases the wire buffer it came
// from (copy-on-decode). DrainInto appends its OutDeltas to a buffer the
// caller owns and may reuse once it has encoded or copied them; the
// node keeps no reference to it. The encoders append to the buffer they
// are given; the Cluster hands them payloads its deliveries have
// finished decoding.
package engine

import (
	"encoding/binary"
	"fmt"
	"math"

	"ndlog/internal/val"
)

// Delta is a signed tuple: +1 for insertion, -1 for deletion. Updates are
// modelled as a deletion followed by an insertion (Section 4).
type Delta struct {
	Sign int8
	// Life is the remaining lifetime, in seconds, an insertion grants its
	// row: the receiving table stores it until now + Life, or its own
	// TTL if that is sooner. Zero means the table's own lifetime (a hard
	// table's: forever), which is what Insert builds. A derived head
	// carries the deadline of its soft support this way (DESIGN.md
	// "Soft state by deadline"); it is relative, so no two clocks need
	// agree. It sits in Sign's padding: a Delta stays 48 bytes.
	Life  float32
	Tuple val.Tuple
}

// Insert builds a +tuple delta.
func Insert(t val.Tuple) Delta { return Delta{Sign: +1, Tuple: t} }

// Deletion builds a -tuple delta.
func Deletion(t val.Tuple) Delta { return Delta{Sign: -1, Tuple: t} }

func (d Delta) String() string {
	sign := "+"
	if d.Sign < 0 {
		sign = "-"
	}
	return sign + d.Tuple.String()
}

// msgKind tags the wire format of a message payload.
type msgKind byte

const (
	msgDeltas msgKind = 1 // plain batch of deltas
	msgShared msgKind = 2 // share-combined batch (see share.go)
)

// AppendDeltas appends the encoded delta batch to dst and returns the
// extended buffer — transports that frame the payload (netrun's epoch
// envelope) build prefix and message in one buffer instead of copying
// the whole payload into place. The buffer is grown at most once, to
// the exact encoded size, so the append chain never reallocates.
func AppendDeltas(dst []byte, ds []Delta) []byte {
	size := 0
	for i := range ds {
		size += headSize(ds[i]) + val.EncodedSize(ds[i].Tuple)
	}
	buf := appendBatchHeader(dst, len(ds), size)
	for i := range ds {
		buf = appendDelta(buf, ds[i])
	}
	return buf
}

// AppendOutDeltas is AppendDeltas over a run of one drain's output — the
// deltas bound for one destination, which Drain returns contiguous — so
// a driver encodes straight from the drain result without first copying
// the run into a []Delta.
func AppendOutDeltas(dst []byte, outs []OutDelta) []byte {
	size := 0
	for i := range outs {
		size += headSize(outs[i].Delta) + val.EncodedSize(outs[i].Delta.Tuple)
	}
	buf := appendBatchHeader(dst, len(outs), size)
	for i := range outs {
		buf = appendDelta(buf, outs[i].Delta)
	}
	return buf
}

// appendBatchHeader grows dst once for a batch of n deltas encoding to
// size bytes, and appends the kind byte and the count.
func appendBatchHeader(dst []byte, n, size int) []byte {
	size += 1 + binary.MaxVarintLen64
	if cap(dst)-len(dst) < size {
		grown := make([]byte, len(dst), len(dst)+size)
		copy(grown, dst)
		dst = grown
	}
	return binary.AppendUvarint(append(dst, byte(msgDeltas)), uint64(n))
}

func appendDelta(buf []byte, d Delta) []byte {
	return val.AppendTuple(appendHead(buf, d), d.Tuple)
}

// A delta's head is its sign byte, then, when the signLife bit is set,
// its lifetime as a little-endian float32. A delta with no lifetime — all
// of hard state — encodes as one byte, 1 or 0, as it always has.
const (
	signInsert byte = 1 << 0
	signLife   byte = 1 << 1
)

// headSize is the encoded size of d's head.
func headSize(d Delta) int {
	if d.Life != 0 {
		return 5
	}
	return 1
}

func appendHead(buf []byte, d Delta) []byte {
	var b byte
	if d.Sign >= 0 {
		b = signInsert
	}
	if d.Life == 0 {
		return append(buf, b)
	}
	return binary.LittleEndian.AppendUint32(append(buf, b|signLife), math.Float32bits(d.Life))
}

// decodeHead reads a delta head from b, returning the sign, the lifetime
// and the bytes consumed. A lifetime must be a non-negative number
// (+Inf included).
func decodeHead(b []byte) (int8, float32, int, error) {
	if len(b) == 0 {
		return 0, 0, 0, fmt.Errorf("engine: truncated delta")
	}
	h := b[0]
	if h&^(signInsert|signLife) != 0 {
		return 0, 0, 0, fmt.Errorf("engine: corrupt delta sign %#x", h)
	}
	sign := int8(-1)
	if h&signInsert != 0 {
		sign = +1
	}
	if h&signLife == 0 {
		return sign, 0, 1, nil
	}
	if len(b) < 5 {
		return 0, 0, 0, fmt.Errorf("engine: truncated delta lifetime")
	}
	life := math.Float32frombits(binary.LittleEndian.Uint32(b[1:]))
	if !(life >= 0) { // also rejects NaN
		return 0, 0, 0, fmt.Errorf("engine: bad delta lifetime %v", life)
	}
	return sign, life, 5, nil
}

// DecodeDeltasInto unmarshals a plain delta batch, which must be all of
// b, appending to dst: a receive loop reuses one decode scratch slice
// across datagrams instead of allocating a fresh batch per message
// (pass dst[:0] to reuse its backing array, nil for a fresh one). in is
// the receiving node's string table; nil copies strings. Decoded
// tuples never alias b (copy-on-decode), so reusing both the read
// buffer and the scratch is safe once the deltas are consumed.
// A retraction is only ever looked up, never stored, so the message's
// retractions are carved from chunks it owns (val.Carver); each
// insertion gets its own exact array, which the table that stores it
// keeps.
func DecodeDeltasInto(b []byte, in *val.Interner, dst []Delta) ([]Delta, error) {
	if len(b) == 0 || msgKind(b[0]) != msgDeltas {
		return nil, fmt.Errorf("engine: not a delta message")
	}
	b = b[1:]
	n, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("engine: corrupt delta count")
	}
	b = b[sz:]
	// Cap preallocation by the remaining payload: every encoded delta is
	// at least one sign byte plus a tuple, so a corrupt header demanding
	// a huge count fails on truncation below instead of allocating first.
	out := dst
	if want := len(dst) + int(min(n, uint64(len(b)))); cap(out) < want {
		out = make([]Delta, len(dst), want)
		copy(out, dst)
	}
	var carve val.Carver
	for i := uint64(0); i < n; i++ {
		sign, life, h, err := decodeHead(b)
		if err != nil {
			return nil, err
		}
		b = b[h:]
		c := (*val.Carver)(nil)
		if sign < 0 {
			c = &carve
		}
		t, m, err := val.DecodeTupleIn(b, in, c)
		if err != nil {
			return nil, fmt.Errorf("engine: bad tuple in delta batch: %w", err)
		}
		b = b[m:]
		out = append(out, Delta{Sign: sign, Life: life, Tuple: t})
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("engine: %d trailing bytes after delta batch", len(b))
	}
	return out, nil
}
