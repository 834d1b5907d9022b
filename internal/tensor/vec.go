// Package tensor implements the dense linear algebra used by the neural
// network substrate and the federated aggregation rules: flat float64
// vectors, row-major matrices, and a register-tiled matmul.
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
		dst[i] += float64(a * x[i])
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

// SubInto computes dst = x - y elementwise. The vector blocks run the lerp
// kernel (dst = a·x + b·y) with the weights 1 and -1: 1·x is x and (-1)·y
// is -y exactly, and x + (-y) is x - y, so every element has the scalar
// difference's bits.
func SubInto(dst, x, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("tensor: SubInto length mismatch")
	}
	i := 0
	if hasAVX && len(dst) >= simdMinLen {
		blocks := len(dst) >> 2
		lerpBlocksAVX(&dst[0], &x[0], &y[0], 1, -1, int64(blocks))
		i = blocks << 2
	}
	for ; i < len(dst); i++ {
		dst[i] = x[i] - y[i]
	}
}

// StepTerms are the optional terms SGDStep adds to a gradient before it
// steps. A nil vector leaves its term out.
type StepTerms struct {
	// ProxMu·(w − ProxRef) is FedProx's proximal gradient.
	ProxMu  float64
	ProxRef []float64
	// Correction is added as it is (SCAFFOLD's c − c_i, FedDyn's −h_i).
	Correction []float64
	// Alpha·d + (1−Alpha)·Momentum mixes in a momentum direction.
	Alpha    float64
	Momentum []float64
}

// SGDStep moves w one step of size lr along g and the terms t, in one
// pass. Per element, each product rounded on its own, in this order:
//
//	d := g[i]
//	d += t.ProxMu * (w[i] - t.ProxRef[i])      (ProxRef != nil)
//	d += t.Correction[i]                        (Correction != nil)
//	d = t.Alpha*d + (1-t.Alpha)*t.Momentum[i]   (Momentum != nil)
//	w[i] += -lr * d
//
// which is, bit for bit, what the separate passes over g — the prox loop,
// AddVec, the momentum lerp g = Alpha·g + (1−Alpha)·Momentum — and then
// Axpy(w, -lr, g) give. g is read, not written.
// Like the other row kernels, the AVX blocks run the same operations eight
// elements at a time and a scalar loop takes the rest.
func SGDStep(w, g []float64, lr float64, t StepTerms) {
	n := len(w)
	if len(g) != n || t.ProxRef != nil && len(t.ProxRef) != n ||
		t.Correction != nil && len(t.Correction) != n || t.Momentum != nil && len(t.Momentum) != n {
		panic("tensor: SGDStep length mismatch")
	}
	var terms int64
	if t.ProxRef != nil {
		terms |= 1
	}
	if t.Correction != nil {
		terms |= 2
	}
	if t.Momentum != nil {
		terms |= 4
	}
	if terms == 0 {
		// The step alone is Axpy's expression, and Axpy's kernel skips
		// the term tests, each a taken branch per block in stepBlocksAVX.
		Axpy(w, -lr, g)
		return
	}
	nlr, a, b := -lr, t.Alpha, 1-t.Alpha
	i := 0
	if hasAVX && n >= simdMinLen {
		blocks := n >> 3
		stepBlocksAVX(&w[0], &g[0], first(t.ProxRef), first(t.Correction), first(t.Momentum),
			t.ProxMu, nlr, a, b, terms, int64(blocks))
		i = blocks << 3
	}
	for ; i < n; i++ {
		d := g[i]
		if terms&1 != 0 {
			d += float64(t.ProxMu * (w[i] - t.ProxRef[i]))
		}
		if terms&2 != 0 {
			d += t.Correction[i]
		}
		if terms&4 != 0 {
			d = float64(a*d) + float64(b*t.Momentum[i])
		}
		w[i] += float64(nlr * d)
	}
}

// first returns &v[0], or nil for an empty v.
func first(v []float64) *float64 {
	if len(v) == 0 {
		return nil
	}
	return &v[0]
}

// Dot returns the inner product of x and y.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i, v := range x {
		s += float64(v * y[i])
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
		s += float64(d * d)
	}
	return math.Sqrt(s)
}
