package wire

import (
	"bytes"
	"math/rand"
	"testing"

	"fedwcm/internal/fl"
)

// The fuzz targets feed arbitrary bytes into the decoders. Invariants:
//
//  1. No panic, no unbounded allocation — corrupt input must fail with an
//     error (length fields are bounded by the remaining input).
//  2. Re-encode closure: whatever decodes successfully must re-encode and
//     re-decode to an identical value (the encoder is a right inverse of
//     the decoder on its image), so a relayed message never drifts.
//
// The seed corpus under testdata/fuzz/* is checked in and replays as a
// regression on plain `go test` and in CI's fuzz step.

func seedCorpus(f *testing.F) {
	r := rand.New(rand.NewSource(41))
	f.Add([]byte{})
	f.Add([]byte("FWR1"))
	f.Add([]byte("FWR2\x01\x00"))
	h := &fl.History{Method: "fedwcm", Stats: randStats(r, 6)}
	f.Add(EncodeResult(h, "client 3 diverged"))
	f.Add(EncodeResult(nil, ""))
	f.Add(EncodeStats(randStats(r, 4)))
	f.Add(retiredFloat16Stats(randStats(r, 4)))
	// Envelopes of kind 3, the retired run-status message.
	for _, p := range [][]byte{EncodeStats(randStats(r, 3)), EncodeResult(h, "")} {
		q := append([]byte{}, p...)
		q[4] = 3
		f.Add(q)
	}
	// A few deliberate corruptions of a valid message.
	p := EncodeResult(h, "")
	for i := 5; i < len(p); i += 7 {
		q := append([]byte{}, p...)
		q[i] ^= 0x81
		f.Add(q)
	}
}

func FuzzDecodeResult(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		h, msg, err := DecodeResult(p)
		if err != nil {
			return
		}
		p2 := EncodeResult(h, msg)
		h2, msg2, err := DecodeResult(p2)
		if err != nil {
			t.Fatalf("re-encode of decoded value does not decode: %v", err)
		}
		if msg2 != msg || (h == nil) != (h2 == nil) {
			t.Fatal("re-encode drifted")
		}
		if h != nil {
			if h2.Method != h.Method {
				t.Fatal("method drifted")
			}
			statsEqual(t, h2.Stats, h.Stats)
		}
	})
}

func FuzzDecodeStats(f *testing.F) {
	seedCorpus(f)
	f.Fuzz(func(t *testing.T, p []byte) {
		stats, err := DecodeStats(p)
		if err != nil {
			return
		}
		p2 := EncodeStats(stats)
		stats2, err := DecodeStats(p2)
		if err != nil {
			t.Fatalf("re-encode of decoded value does not decode: %v", err)
		}
		statsEqual(t, stats2, stats)
		p3 := EncodeStats(stats2)
		if !bytes.Equal(p2, p3) {
			t.Fatal("lossless encoding is not a fixed point")
		}
	})
}
