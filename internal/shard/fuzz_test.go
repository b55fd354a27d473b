package shard

import (
	"bufio"
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"ndlog/internal/val"
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
		stream = binary.AppendUvarint(stream, uint64(len(b)))
		stream = append(stream, b...)
	}
	f.Add(stream)
	f.Add(binary.AppendUvarint(nil, maxFrameBytes+1)) // a prefix above the cap
	// A count of 2^40 wherever the gathered batch announces a size: its
	// delta count, then in its one insertion the predicate's length, the
	// tuple's arity and a list field's length.
	for _, prefix := range [][]byte{
		{1},                                      // delta count
		{1, 1, 1},                                // predicate length
		{1, 1, 1, 1, 'p'},                        // arity
		{1, 1, 1, 1, 'p', 1, byte(val.KindList)}, // list length
	} {
		huge := base64.StdEncoding.EncodeToString(binary.AppendUvarint(prefix, 1<<40))
		f.Add(fmt.Appendf(nil, `{"kind":%d,"tuples":%q}`, kindTuples, huge))
	}
	f.Add([]byte(`{"kind":200}`))   // an unknown kind
	f.Add([]byte{0x7E, 0x01, 0x02}) // a data envelope
	adopted := encodeFrame(frame{Kind: kindAdopted, Shard: 2, Req: 12, Node: "c", Addr: "x"})
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
		if n := len(fr.Book) + len(fr.Nodes) + len(fr.Tuples) + len(fr.Blob); n > len(b) {
			t.Fatalf("%d decoded elements from %d bytes", n, len(b))
		}
		// Byte equality, not value equality: NaN floats decode fine but
		// are not equal to themselves.
		re := encodeFrame(fr)
		fr2, err := decodeFrame(re)
		if err != nil {
			t.Fatalf("re-decode of kind %d frame failed: %v", fr.Kind, err)
		}
		if re2 := encodeFrame(fr2); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not a fixpoint:\n  %s\n  %s", re, re2)
		}
	})
}
