package wire

import "math"

// Float16 conversion for the monitoring-only columns of the wire codec (the
// heartbeat per-class accuracies), where full float64 precision is wasted
// bandwidth. Round-to-nearest-even; error bounds (tested in quant_test.go):
// relative error ≤ 2⁻¹¹ for normal half-precision magnitudes
// (2⁻¹⁴ ≤ |v| ≤ 65504); |v| > 65504 saturates to ±Inf, |v| < 2⁻¹⁴ falls
// into subnormals with absolute error ≤ 2⁻²⁵. NaN and ±Inf are preserved
// (NaN payloads are not).

// F16Bits converts v to IEEE-754 binary16 bits, rounding to nearest-even.
func F16Bits(v float64) uint16 {
	b := math.Float64bits(v)
	sign := uint16(b>>48) & 0x8000
	exp := int(b>>52) & 0x7FF
	mant := b & 0xFFFFFFFFFFFFF
	if exp == 0x7FF { // Inf or NaN
		if mant != 0 {
			return sign | 0x7E00 // quiet NaN
		}
		return sign | 0x7C00
	}
	e := exp - 1023 + 15
	if e >= 31 { // overflow → Inf
		return sign | 0x7C00
	}
	if e <= 0 { // subnormal half (or zero)
		if e < -10 { // too small for even the largest shift: rounds to ±0
			return sign
		}
		m := mant | 1<<52
		shift := uint(43 - e) // 42 (normal case) plus 1-e extra
		half := m >> shift
		rem := m & (1<<shift - 1)
		mid := uint64(1) << (shift - 1)
		if rem > mid || (rem == mid && half&1 == 1) {
			half++ // may carry into the smallest normal exponent: still correct
		}
		return sign | uint16(half)
	}
	half := mant >> 42
	rem := mant & (1<<42 - 1)
	mid := uint64(1) << 41
	if rem > mid || (rem == mid && half&1 == 1) {
		half++
	}
	comb := uint32(e)<<10 + uint32(half) // mantissa carry bumps the exponent
	if comb >= 0x7C00 {
		return sign | 0x7C00
	}
	return sign | uint16(comb)
}

// F16Value converts binary16 bits back to float64 (exact: every half value
// is representable in float64).
func F16Value(h uint16) float64 {
	sign := 1.0
	if h&0x8000 != 0 {
		sign = -1
	}
	exp := int(h>>10) & 31
	mant := float64(h & 0x3FF)
	switch exp {
	case 31:
		if mant != 0 {
			return math.NaN()
		}
		return sign * math.Inf(1)
	case 0:
		return sign * mant * 0x1p-24
	default:
		return sign * (1 + mant*0x1p-10) * math.Ldexp(1, exp-15)
	}
}
