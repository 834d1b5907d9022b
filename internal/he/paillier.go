// Package he implements the additively homomorphic encryption substrate for
// FedWCM's private global-distribution gathering (Appendix C). The paper
// uses the BFV scheme via TenSEAL; neither exists here, so we substitute
// Paillier — which provides exactly the property the protocol needs
// (ciphertext addition = plaintext addition over integers) on top of
// math/big — plus BatchCrypt-style slot packing so a whole class-count
// vector rides in few ciphertexts. See DESIGN.md for the substitution
// argument; Table 6's size accounting is reproduced by the sizes helpers.
package he

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"
)

var one = big.NewInt(1)

// PublicKey is a Paillier public key.
type PublicKey struct {
	N  *big.Int // modulus n = p·q
	N2 *big.Int // n²
	G  *big.Int // generator, fixed to n+1
}

// PrivateKey is a Paillier key pair.
type PrivateKey struct {
	PublicKey
	Lambda *big.Int // lcm(p−1, q−1)
	Mu     *big.Int // (L(g^λ mod n²))⁻¹ mod n
}

// Ciphertext is a Paillier ciphertext (an element of Z*_{n²}).
type Ciphertext struct {
	C *big.Int
}

// GenerateKeys creates a Paillier key pair with an n of roughly `bits` bits.
// Test code uses small sizes (≥128); the protocol default is 1024.
func GenerateKeys(bits int) (*PrivateKey, error) {
	if bits < 64 {
		return nil, errors.New("he: modulus too small")
	}
	for attempt := 0; attempt < 64; attempt++ {
		p, err := rand.Prime(rand.Reader, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(rand.Reader, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
		lambda := new(big.Int).Mul(pm1, qm1)
		lambda.Div(lambda, gcd)
		n2 := new(big.Int).Mul(n, n)
		g := new(big.Int).Add(n, one)
		// μ = (L(g^λ mod n²))⁻¹ mod n
		gl := new(big.Int).Exp(g, lambda, n2)
		l := lFunc(gl, n)
		mu := new(big.Int).ModInverse(l, n)
		if mu == nil {
			continue // λ not invertible for this p,q draw; retry
		}
		return &PrivateKey{
			PublicKey: PublicKey{N: n, N2: n2, G: g},
			Lambda:    lambda,
			Mu:        mu,
		}, nil
	}
	return nil, errors.New("he: key generation failed to find valid primes")
}

// lFunc computes L(x) = (x − 1)/n.
func lFunc(x, n *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, n)
}

// Encrypt encrypts m ∈ [0, n): c = g^m · r^n mod n².
func (pk *PublicKey) Encrypt(m *big.Int) (*Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("he: plaintext out of range [0, n)")
	}
	// random r in [1, n) with gcd(r, n) = 1
	var r *big.Int
	for {
		var err error
		r, err = rand.Int(rand.Reader, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			break
		}
	}
	gm := new(big.Int).Exp(pk.G, m, pk.N2)
	rn := new(big.Int).Exp(r, pk.N, pk.N2)
	c := gm.Mul(gm, rn)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}, nil
}

// Decrypt recovers the plaintext: m = L(c^λ mod n²)·μ mod n.
func (sk *PrivateKey) Decrypt(ct *Ciphertext) *big.Int {
	cl := new(big.Int).Exp(ct.C, sk.Lambda, sk.N2)
	m := lFunc(cl, sk.N)
	m.Mul(m, sk.Mu)
	m.Mod(m, sk.N)
	return m
}

// Add returns a ciphertext of m1 + m2 (mod n): c1·c2 mod n².
func (pk *PublicKey) Add(a, b *Ciphertext) *Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.N2)
	return &Ciphertext{C: c}
}

// CiphertextSize reports the worst-case ciphertext size in bytes for a key:
// ⌈bits(n²)/8⌉. Table 6 compares this against the plaintext size.
func (pk *PublicKey) CiphertextSize() int {
	return (pk.N2.BitLen() + 7) / 8
}
