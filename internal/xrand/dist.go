package xrand

import "math"

// Gamma returns a Gamma(shape, 1) variate using the Marsaglia–Tsang method.
// For shape < 1 it uses the boosting identity
// Gamma(a) = Gamma(a+1) * U^{1/a}.
func (r *RNG) Gamma(shape float64) float64 {
	if shape <= 0 {
		panic("xrand: Gamma with non-positive shape")
	}
	if shape < 1 {
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		var x, v float64
		for {
			x = r.NormFloat64()
			v = 1 + c*x
			if v > 0 {
				break
			}
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet samples a probability vector from Dirichlet(alpha,...,alpha) of
// the given dimension. Smaller alpha produces spikier (more heterogeneous)
// vectors; this is the client class-mix sampler behind the paper's
// Dir(beta) non-IID partition.
func (r *RNG) Dirichlet(alpha float64, dim int) []float64 {
	if dim <= 0 {
		panic("xrand: Dirichlet with non-positive dim")
	}
	p := make([]float64, dim)
	sum := 0.0
	for i := range p {
		p[i] = r.Gamma(alpha)
		sum += p[i]
	}
	if sum == 0 {
		// Astronomically unlikely; fall back to one-hot at a random index.
		p[r.Intn(dim)] = 1
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// Categorical draws an index with probability proportional to weights[i].
// Weights need not be normalised; negative weights are treated as zero.
func (r *RNG) Categorical(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// SampleWithoutReplacement returns k distinct integers drawn uniformly from
// [0, n), in random order. It panics if k > n or k < 0.
func (r *RNG) SampleWithoutReplacement(n, k int) []int {
	if k < 0 || k > n {
		panic("xrand: SampleWithoutReplacement with k out of range")
	}
	// Partial Fisher-Yates over an index array: O(n) memory, O(n) time,
	// which is fine for client sampling (n = number of clients).
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// FillNorm fills dst with independent N(mu, sigma^2) samples.
func (r *RNG) FillNorm(dst []float64, mu, sigma float64) {
	for i := range dst {
		dst[i] = mu + sigma*r.NormFloat64()
	}
}
