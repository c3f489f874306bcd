package rsm

import (
	"testing"

	"repro/internal/types"
)

// FuzzDecodeOp feeds arbitrary strings to the op decoder; malformed input
// must error, and well-formed input must round-trip. The string-shaped
// seeds are the retired "kind|nonce|klen:keyval" format, which must now
// error like any other untagged input.
func FuzzDecodeOp(f *testing.F) {
	f.Add(string(Op{Kind: "w", Key: "k", Val: "v", Nonce: 1}.Encode()))
	f.Add("w|1|2:ab")
	f.Add("")
	f.Add("r|0|0:")
	// Binary wire-format seeds: reads, weird keys, custom kinds, and
	// truncations/corruptions of a valid encoding.
	binary := string(Op{Kind: "w", Key: "key|with:bytes", Val: "val\x00", Nonce: 42}.Encode())
	f.Add(binary)
	f.Add(string(Op{Kind: "r", Key: "k", Nonce: 7}.Encode()))
	f.Add(string(Op{Kind: "custom", Key: "k", Val: "v", Nonce: -1}.Encode()))
	f.Add(binary[:1])
	f.Add(binary[:len(binary)/2])
	f.Add(binary + "trailing")
	f.Add("\x01\xff junk after unknown kind byte")
	f.Fuzz(func(t *testing.T, s string) {
		op, err := DecodeOp(types.Value(s))
		if err != nil {
			return
		}
		if s[0] != opWireTag {
			t.Fatalf("untagged input %q decoded to %+v", s, op)
		}
		// A successfully decoded op re-encodes to something that decodes
		// back to itself (the encoding is canonical for decoded values).
		round, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatalf("re-encode of %+v failed to decode: %v", op, err)
		}
		if round != op {
			t.Fatalf("round trip changed op: %+v vs %+v", round, op)
		}
	})
}
