// Package tensor implements the dense linear algebra used by the neural
// network substrate and the federated aggregation rules: flat float64
// vectors, row-major matrices, and a blocked goroutine-parallel matmul.
// It deliberately stays small and allocation-conscious rather than general.
package tensor

import "math"

// Zero sets every element of v to 0.
func Zero(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to c.
func Fill(v []float64, c float64) {
	for i := range v {
		v[i] = c
	}
}

// CopyVec returns a fresh copy of v.
func CopyVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Axpy computes dst += a*x elementwise. Panics if lengths differ.
func Axpy(dst []float64, a float64, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: Axpy length mismatch")
	}
	i := 0
	if hasAVX && len(x) >= simdMinLen {
		blocks := len(x) >> 2
		axpyBlocksAVX(&dst[0], &x[0], a, int64(blocks))
		i = blocks << 2
	}
	for ; i < len(x); i++ {
		dst[i] += a * x[i]
	}
}

// Scale multiplies every element of v by a.
func Scale(v []float64, a float64) {
	i := 0
	if hasAVX && len(v) >= simdMinLen {
		blocks := len(v) >> 2
		scaleBlocksAVX(&v[0], a, int64(blocks))
		i = blocks << 2
	}
	for ; i < len(v); i++ {
		v[i] *= a
	}
}

// AddVec computes dst += x elementwise.
func AddVec(dst, x []float64) {
	if len(dst) != len(x) {
		panic("tensor: AddVec length mismatch")
	}
	i := 0
	if hasAVX && len(x) >= simdMinLen {
		blocks := len(x) >> 2
		addVecBlocksAVX(&dst[0], &x[0], int64(blocks))
		i = blocks << 2
	}
	for ; i < len(x); i++ {
		dst[i] += x[i]
	}
}

// Lerp computes dst = a*x + (1-a)*y elementwise into dst.
// This is exactly the momentum-mixing rule v = alpha*g + (1-alpha)*Delta.
func Lerp(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("tensor: Lerp length mismatch")
	}
	b := 1 - a
	i := 0
	if hasAVX && len(dst) >= simdMinLen {
		blocks := len(dst) >> 2
		lerpBlocksAVX(&dst[0], &x[0], &y[0], a, b, int64(blocks))
		i = blocks << 2
	}
	for ; i < len(dst); i++ {
		dst[i] = a*x[i] + b*y[i]
	}
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// Sum returns the sum of all elements.
func Sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return Sum(v) / float64(len(v))
}

// Max returns the maximum element. Panics on empty input.
func Max(v []float64) float64 {
	if len(v) == 0 {
		panic("tensor: Max of empty slice")
	}
	m := v[0]
	for _, x := range v[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// ArgMax returns the index of the maximum element (first on ties).
// Panics on empty input.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		panic("tensor: ArgMax of empty slice")
	}
	best, bi := v[0], 0
	for i, x := range v[1:] {
		if x > best {
			best, bi = x, i+1
		}
	}
	return bi
}

// Softmax writes softmax(x/temp) into dst (dst may alias x).
// temp must be > 0.
func Softmax(dst, x []float64, temp float64) {
	if len(dst) != len(x) {
		panic("tensor: Softmax length mismatch")
	}
	if temp <= 0 {
		panic("tensor: Softmax with non-positive temperature")
	}
	m := Max(x)
	sum := 0.0
	for i, v := range x {
		e := math.Exp((v - m) / temp)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
}

// L2Dist returns the Euclidean distance between x and y.
func L2Dist(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: L2Dist length mismatch")
	}
	s := 0.0
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return math.Sqrt(s)
}
