package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzDecodeFrame drives the control-plane decoder — which reads TCP
// input from outside the process — with arbitrary bytes. It must never
// panic; it must not size anything from a count the payload cannot
// back (the huge-count seeds, and the element bound below); and every
// frame it accepts must survive an encode/decode round trip, with the
// encoding a fixpoint. The same bytes also go through the
// length-prefixed stream reader, which must never panic and must refuse
// a prefix above maxFrameBytes.
func FuzzDecodeFrame(f *testing.F) {
	var stream []byte
	for _, fr := range sampleFrames() {
		b := encodeFrame(fr)
		f.Add(b)
		stream = appendUvarint(stream, uint64(len(b)))
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add(appendUvarint(nil, maxFrameBytes+1)) // a prefix above the cap
	// A count of 2^40 wherever a collection announces its size.
	huge := appendUvarint(nil, 1<<40)
	for _, prefix := range [][]byte{
		{byte(kindHello), 1},       // book
		{byte(kindRederive), 1, 1}, // nodes
		{byte(kindTuples), 1, 1},   // tuples
		{byte(kindState), 1, 1},    // blob
		{byte(kindResume), 1},      // nodes
	} {
		f.Add(append(prefix, huge...))
	}
	f.Add([]byte{0x7E, 0x01, 0x02}) // a data envelope
	adopted := encodeFrame(frame{kind: kindAdopted, shard: 2, req: 12, node: "c", addr: "x"})
	f.Add(adopted[:len(adopted)-1]) // truncated

	f.Fuzz(func(t *testing.T, b []byte) {
		r := bufio.NewReader(bytes.NewReader(b))
		for {
			prefix, _ := r.Peek(binary.MaxVarintLen64)
			n, k := binary.Uvarint(prefix)
			_, err := readFrame(r)
			if k > 0 && n > maxFrameBytes && !errors.Is(err, errFrameTooLarge) {
				t.Fatalf("prefix %d above the cap: err = %v", n, err)
			}
			if err != nil {
				break
			}
		}

		fr, err := decodeFrame(b)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		// Every decoded element consumed at least one byte of b.
		if n := len(fr.book) + len(fr.nodes) + len(fr.tuples) + len(fr.blob); n > len(b) {
			t.Fatalf("%d decoded elements from %d bytes", n, len(b))
		}
		// Byte equality, not value equality: NaN floats decode fine but
		// are not equal to themselves.
		re := encodeFrame(fr)
		fr2, err := decodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of %#x frame failed: %v", byte(fr.kind), err)
		}
		if re2 := encodeFrame(fr2); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixpoint:\n  %x\n  %x", re, re2)
		}
	})
}
