//go:build amd64

package tensor

import "testing"

// TestGemmMatchesReferenceWithoutAVX reruns the tiled-vs-reference sweeps
// with the assembly kernels switched off, so the pure-Go micro-kernel and
// the edge loops that non-AVX builds use for every remainder are held to
// the same bits on the host that has AVX.
func TestGemmMatchesReferenceWithoutAVX(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX on this host: the plain tests already ran the Go kernels")
	}
	hasAVX = false
	defer func() { hasAVX = true }()
	t.Run("MatMulInto", TestMatMulIntoMatchesReference)
	t.Run("MatMulBTInto", TestMatMulBTIntoMatchesReference)
	t.Run("MatMulATInto", TestMatMulATIntoMatchesReference)
	t.Run("dW via dWT", TestMatMulBTSwappedIsTranspose)
}
