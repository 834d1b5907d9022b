// Package xrand provides a deterministic, seedable random number generator
// and the sampling distributions used throughout the FedWCM simulator
// (Gaussian, Gamma, Dirichlet, categorical, sampling without replacement).
//
// Determinism matters more than raw speed here: every stochastic decision in
// an experiment (data synthesis, partitioning, client sampling, minibatch
// order) is derived from splitmix64 streams keyed by (seed, round, client),
// so a single cell of a sweep can be re-run in isolation and reproduce the
// sweep bit-for-bit. The generator is xoshiro256**, seeded via splitmix64 as
// recommended by its authors.
package xrand

import "math"

// RNG is a deterministic pseudo-random number generator (xoshiro256**).
// It is NOT safe for concurrent use; derive per-goroutine generators with
// New(DeriveSeed(...)).
type RNG struct {
	s [4]uint64
	// cached second Gaussian from Box-Muller
	gauss    float64
	hasGauss bool
}

// mix64 is the splitmix64 finaliser: a strong 64-bit bijective mixer.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// splitmix64 advances x and returns the next splitmix64 output.
// It is used both for seeding xoshiro and for deriving independent seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	return mix64(*x)
}

// New returns an RNG seeded deterministically from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initialises the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	r.hasGauss = false
}

// DeriveSeed mixes an arbitrary list of stream identifiers into a single
// seed. It is the canonical way to obtain independent, reproducible streams:
// DeriveSeed(expSeed, round, clientID).
func DeriveSeed(parts ...uint64) uint64 {
	x := uint64(0x2545f4914f6cdd1d)
	for _, p := range parts {
		x = mix64(x ^ mix64(p+0x9e3779b97f4a7c15))
		x += 0x9e3779b97f4a7c15
	}
	return mix64(x)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits (xoshiro256** scrambler).
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias is
	// negligible for the small n used here, but we still reject to be exact.
	max := uint64(n)
	limit := (^uint64(0) / max) * max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1), rounded so it never fuses.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float64Range returns a uniform float64 in [lo, hi).
func (r *RNG) Float64Range(lo, hi float64) float64 {
	return lo + float64((hi-lo)*r.Float64())
}

// NormFloat64 returns a standard normal variate (Box-Muller with caching).
func (r *RNG) NormFloat64() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// ShuffleInts shuffles s in place.
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}
