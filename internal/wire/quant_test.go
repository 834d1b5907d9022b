package wire

import (
	"math"
	"math/rand"
	"testing"
)

// TestF16Exhaustive checks the half-precision conversion against every one
// of the 65536 bit patterns: F16Value must be exact (every half fits in a
// float64) and F16Bits must return the identical pattern back for all
// non-NaN values (NaN collapses to the canonical quiet NaN).
func TestF16Exhaustive(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := uint16(i)
		v := F16Value(h)
		back := F16Bits(v)
		if math.IsNaN(v) {
			if back&0x7C00 != 0x7C00 || back&0x3FF == 0 {
				t.Fatalf("h=%#04x: NaN must map to a NaN pattern, got %#04x", h, back)
			}
			continue
		}
		// Normalize -0: 0x8000 and 0x0000 are distinct patterns but both
		// must roundtrip to themselves.
		if back != h {
			t.Fatalf("h=%#04x (%v) roundtripped to %#04x", h, v, back)
		}
	}
}

// TestF16RoundNearestEven spot-checks the rounding mode on hand-picked
// midpoints.
func TestF16RoundNearestEven(t *testing.T) {
	cases := []struct {
		in   float64
		want uint16
	}{
		{0, 0x0000},
		{math.Copysign(0, -1), 0x8000},
		{1, 0x3C00},
		{-2, 0xC000},
		{65504, 0x7BFF},             // largest finite half
		{65520, 0x7C00},             // halfway to overflow rounds to Inf (even)
		{65536, 0x7C00},             // overflow → Inf
		{1 + 0x1p-11, 0x3C00},       // midpoint between 1 and 1+2⁻¹⁰ → even (1)
		{1 + 3*0x1p-11, 0x3C02},     // midpoint above odd → rounds up to even
		{0x1p-14, 0x0400},           // smallest normal
		{0x1p-24, 0x0001},           // smallest subnormal
		{0x1p-25, 0x0000},           // halfway below → ties to even (zero)
		{0x1p-25 + 0x1p-30, 0x0001}, // just above the tie → up
		{math.Inf(1), 0x7C00},
		{math.Inf(-1), 0xFC00},
	}
	for _, c := range cases {
		if got := F16Bits(c.in); got != c.want {
			t.Errorf("F16Bits(%v) = %#04x, want %#04x", c.in, got, c.want)
		}
	}
}

// TestF16ErrorBound: random finite inputs stay within the documented
// relative (normal range) or absolute (subnormal range) error after a
// roundtrip.
func TestF16ErrorBound(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	for i := 0; i < 100000; i++ {
		var v float64
		switch i % 3 {
		case 0:
			v = (r.Float64()*2 - 1) * 65504 // full finite half range
		case 1:
			v = (r.Float64()*2 - 1) // the accuracy/weight-delta regime
		default:
			v = (r.Float64()*2 - 1) * 0x1p-14 // subnormal regime
		}
		got := F16Value(F16Bits(v))
		bound := math.Abs(v) * 0x1p-11
		if bound < 0x1p-25 {
			bound = 0x1p-25
		}
		if math.Abs(got-v) > bound {
			t.Fatalf("|f16(%v) - %v| = %v > %v", got, v, math.Abs(got-v), bound)
		}
	}
}
