//go:build amd64

package tensor

import "testing"

// TestGemmMatchesReferenceWithoutAVX reruns the tiled-vs-reference sweeps at
// each kernel level — the 16-wide AVX-512 tile first, AVX without it, and
// the pure-Go micro-kernel and edge loop that non-AVX builds use for
// everything — so all three are held to the same bits on the one host.
// Levels the host lacks are skipped.
func TestGemmMatchesReferenceWithoutAVX(t *testing.T) {
	avx, avx512 := hasAVX, hasAVX512
	defer func() { hasAVX, hasAVX512 = avx, avx512 }()
	levels := []struct {
		name        string
		avx, avx512 bool
	}{
		{"AVX-512", true, true},
		{"AVX only", true, false},
		{"Go only", false, false},
	}
	for _, sweep := range []struct {
		name string
		fn   func(*testing.T)
	}{
		{"MatMulInto", TestMatMulIntoMatchesReference},
		{"MatMulBTInto", TestMatMulBTIntoMatchesReference},
		{"MatMulATInto", TestMatMulATIntoMatchesReference},
		{"dW via dWT", TestMatMulBTSwappedIsTranspose},
		{"gemmBlock", TestGemmBlockAccumulatesIntoDst},
	} {
		t.Run(sweep.name, func(t *testing.T) {
			for _, lvl := range levels {
				t.Run(lvl.name, func(t *testing.T) {
					if lvl.avx && !avx || lvl.avx512 && !avx512 {
						t.Skip("the host lacks this level")
					}
					hasAVX, hasAVX512 = lvl.avx, lvl.avx512
					sweep.fn(t)
				})
			}
		})
	}
}
