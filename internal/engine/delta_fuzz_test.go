package engine

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"ndlog/internal/parser"
	"ndlog/internal/val"
)

// FuzzDecodeDeltas drives the plain-batch wire decoder with arbitrary
// bytes: it must never panic or over-allocate, and every payload it
// accepts must survive an encode/decode round trip unchanged.
func FuzzDecodeDeltas(f *testing.F) {
	seed := [][]Delta{
		nil,
		{Insert(val.NewTuple("p", val.NewAddr("a"), val.NewInt(1)))},
		{
			Insert(val.NewTuple("path", val.NewAddr("a"), val.NewAddr("d"),
				val.NewList(val.NewAddr("a"), val.NewAddr("b")), val.NewFloat(2.5))),
			Deletion(val.NewTuple("q", val.NewAddr("b"), val.NewString("x"), val.NewBool(true))),
			Insert(val.NewTuple("nilly", val.NewAddr("c"), val.Nil)),
		},
	}
	for _, ds := range seed {
		f.Add(EncodeDeltas(ds))
	}
	// Corrupt variants: huge count, truncated tuple, wrong kind byte.
	huge := []byte{byte(msgDeltas)}
	huge = binary.AppendUvarint(huge, 1<<40)
	f.Add(huge)
	enc := EncodeDeltas(seed[2])
	f.Add(enc[:len(enc)/2])
	f.Add([]byte{0xFF, 0x01, 0x02})
	// Soft deltas: lifetimes carried, +Inf, a flagged zero, and a lifetime
	// cut short.
	p := val.NewTuple("p", val.NewAddr("a"), val.NewInt(1))
	f.Add(EncodeDeltas([]Delta{{Sign: +1, Life: 2.5, Tuple: p}, Deletion(p), {Sign: +1, Life: float32(math.Inf(1)), Tuple: p}}))
	zero := []byte{byte(msgDeltas), 1, signInsert | signLife, 0, 0, 0, 0}
	f.Add(val.AppendTuple(zero, p))
	f.Add([]byte{byte(msgDeltas), 1, signInsert | signLife, 0, 0})
	// A node's export, the payload of a snapshot and of a migration: a
	// base row once per derivation count and a soft row with the
	// lifetime it has left.
	prog, err := parser.Parse(`materialize(link, infinity, infinity, keys(1,2)).
materialize(beacon, 30, infinity, keys(1,2)).
`)
	if err != nil {
		f.Fatal(err)
	}
	c, err := NewCentral(prog, Options{})
	if err != nil {
		f.Fatal(err)
	}
	c.Node().SetNow(100)
	link := val.NewTuple("link", val.NewAddr("a"), val.NewAddr("b"), val.NewFloat(1))
	c.Insert(link)
	c.Insert(link)
	c.Insert(val.NewTuple("beacon", val.NewAddr("a"), val.NewList(val.NewAddr("b"))))
	c.Node().SetNow(112.5)
	export := c.Node().Export(nil)
	if len(export) != 3 || export[0].Life != 17.5 {
		f.Fatalf("export seed %v, want a beacon with 17.5 s left and link twice", export)
	}
	f.Add(AppendDeltas(nil, export))

	f.Fuzz(func(t *testing.T, b []byte) {
		ds, err := DecodeDeltas(b)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		// Accepted payloads must re-encode canonically: encode(decode(x))
		// is a fixpoint. (Value equality would be too strict here — NaN
		// floats decode fine but are not Equal to themselves.)
		re := EncodeDeltas(ds)
		ds2, err := DecodeDeltas(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(ds2) != len(ds) {
			t.Fatalf("round trip %d deltas, want %d", len(ds2), len(ds))
		}
		for i := range ds {
			if ds2[i].Sign != ds[i].Sign || ds2[i].Life != ds[i].Life {
				t.Fatalf("delta %d sign or lifetime: %v life %v != %v life %v", i, ds2[i], ds2[i].Life, ds[i], ds[i].Life)
			}
		}
		if re2 := EncodeDeltas(ds2); !bytes.Equal(re, re2) {
			t.Fatalf("encoding not canonical:\n  %x\n  %x", re, re2)
		}
	})
}

// TestDecodeDeltasHugeCountHeader pins the preallocation cap: a header
// declaring 2^40 deltas over a 3-byte payload must fail on truncation,
// not allocate gigabytes first.
func TestDecodeDeltasHugeCountHeader(t *testing.T) {
	msg := []byte{byte(msgDeltas)}
	msg = binary.AppendUvarint(msg, 1<<40)
	if _, err := DecodeDeltas(msg); err == nil {
		t.Error("huge-count header should fail")
	}
	// Same for the shared-message group count.
	shared := []byte{byte(msgShared)}
	shared = binary.AppendUvarint(shared, 1<<40)
	if _, err := DecodeShared(shared); err == nil {
		t.Error("huge-group header should fail")
	}
}
