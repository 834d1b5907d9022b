package wire

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fedwcm/internal/fl"
)

// The fuzz targets feed arbitrary bytes into the decoders. Invariants:
//
//  1. No panic — corrupt input must fail with an error.
//  2. Re-encode closure: whatever decodes successfully must re-encode and
//     re-decode to an identical value, and the re-encoding is a byte-level
//     fixed point, so a relayed message never drifts.
//
// The seed corpus under testdata/fuzz/* holds binary envelopes from before
// the hop spoke JSON; TestCheckedInCorpusIsRejected keeps them refused. It
// replays as a regression on plain `go test` and in CI's fuzz step.

func seedCorpus(f *testing.F) {
	r := rand.New(rand.NewSource(41))
	for _, s := range []string{"", "null", "0", `""`, "[]", "{}", "[null]", `{"history":null}`,
		`{"rounds":[{"round":1}]}`, "FWR1", "FWR1\x01\x00\x00", "FWR1\x02\x00\x00"} {
		f.Add([]byte(s))
	}
	h := &fl.History{Method: "fedwcm", Stats: randStats(r, 6)}
	f.Add(EncodeResult(h, "client 3 diverged"))
	f.Add(EncodeResult(nil, ""))
	for n := 0; n < 24; n++ {
		f.Add(EncodeResult(&fl.History{Method: "fedavg", Stats: randStats(r, n)}, ""))
		p, err := EncodeStats(randStats(r, n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
	}
	// Truncations and one-byte corruptions of a valid body.
	p := EncodeResult(h, "")
	for i := 0; i < 24; i++ {
		at := i * len(p) / 24
		f.Add(p[:at])
		q := append([]byte{}, p...)
		q[at] ^= 0x21
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
		if !bytes.Equal(EncodeResult(h2, msg2), p2) {
			t.Fatal("encoding is not a fixed point")
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
		p2, err := EncodeStats(stats)
		if err != nil {
			t.Fatalf("decoded value does not re-encode: %v", err)
		}
		stats2, err := DecodeStats(p2)
		if err != nil {
			t.Fatalf("re-encode of decoded value does not decode: %v", err)
		}
		statsEqual(t, stats2, stats)
		if p3, _ := EncodeStats(stats2); !bytes.Equal(p2, p3) {
			t.Fatal("encoding is not a fixed point")
		}
	})
}

// TestCheckedInCorpusIsRejected: every checked-in seed is a binary envelope
// or a fragment of one, and neither decoder accepts any of them.
func TestCheckedInCorpusIsRejected(t *testing.T) {
	files, err := filepath.Glob("testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in corpus (%v)", err)
	}
	for _, name := range files {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		arg, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if !ok || len(lines) != 2 {
			t.Fatalf("%s: not a one-argument []byte corpus file", name)
		}
		p, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, _, err := DecodeResult([]byte(p)); err == nil {
			t.Errorf("%s decoded as a result", name)
		}
		if _, err := DecodeStats([]byte(p)); err == nil {
			t.Errorf("%s decoded as stats", name)
		}
	}
}
