package tensor

import (
	"testing"
	"testing/quick"

	"fedwcm/internal/xrand"
)

// naiveMatMul is the reference implementation all variants are checked
// against.
func naiveMatMul(a, b *Dense) *Dense {
	out := NewDense(a.R, b.C)
	for i := 0; i < a.R; i++ {
		for j := 0; j < b.C; j++ {
			s := 0.0
			for p := 0; p < a.C; p++ {
				s += a.Data[i*a.C+p] * b.Data[p*b.C+j]
			}
			out.Data[i*out.C+j] = s
		}
	}
	return out
}

// transpose returns a newly allocated transpose of m.
func transpose(m *Dense) *Dense {
	out := NewDense(m.C, m.R)
	for i := 0; i < m.R; i++ {
		for j, v := range m.Row(i) {
			out.Data[j*m.R+i] = v
		}
	}
	return out
}

func randDense(r *xrand.RNG, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	r.FillNorm(m.Data, 0, 1)
	return m
}

func TestMatMulAgainstNaive(t *testing.T) {
	r := xrand.New(1)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(12)
		k := 1 + r.Intn(12)
		m := 1 + r.Intn(12)
		a := randDense(r, n, k)
		b := randDense(r, k, m)
		got := NewDense(n, m)
		MatMulInto(got, a, b)
		want := naiveMatMul(a, b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMul mismatch at %dx%dx%d", n, k, m)
		}
	}
}

func TestMatMulBTAgainstNaive(t *testing.T) {
	r := xrand.New(2)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		k := 1 + r.Intn(10)
		m := 1 + r.Intn(10)
		a := randDense(r, n, k)
		b := randDense(r, m, k)
		got := NewDense(n, m)
		MatMulBTInto(got, a, b)
		want := naiveMatMul(a, transpose(b))
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulBT mismatch at %dx%dx%d", n, k, m)
		}
	}
}

func TestMatMulATAgainstNaive(t *testing.T) {
	r := xrand.New(3)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(10)
		rr := 1 + r.Intn(10)
		c := 1 + r.Intn(10)
		a := randDense(r, n, rr)
		b := randDense(r, n, c)
		got := NewDense(rr, c)
		MatMulATInto(got, a, b)
		want := naiveMatMul(transpose(a), b)
		if !Equal(got, want, 1e-10) {
			t.Fatalf("MatMulAT mismatch at n=%d r=%d c=%d", n, rr, c)
		}
	}
}

func TestMatMulIdentity(t *testing.T) {
	r := xrand.New(5)
	a := randDense(r, 7, 7)
	eye := NewDense(7, 7)
	for i := 0; i < 7; i++ {
		eye.Data[i*7+i] = 1
	}
	got := NewDense(7, 7)
	if MatMulInto(got, a, eye); !Equal(got, a, 1e-12) {
		t.Error("A·I != A")
	}
	if MatMulInto(got, eye, a); !Equal(got, a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMatMulDimensionPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	MatMulInto(NewDense(2, 2), NewDense(2, 3), NewDense(4, 2))
}

// TestMatVec checks A·x in its production form: a MatMulBTInto against a
// one-row operand.
func TestMatVec(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got := NewDense(2, 1)
	MatMulBTInto(got, a, FromSlice(1, 3, []float64{1, 0, -1}))
	if got.Data[0] != -2 || got.Data[1] != -2 {
		t.Fatalf("A·x got %v", got.Data)
	}
}

func TestMatMulLinearityProperty(t *testing.T) {
	// (A+B)·C == A·C + B·C within fp tolerance
	f := func(seed uint64) bool {
		r := xrand.New(seed)
		n, k, m := 5, 6, 4
		a := randDense(r, n, k)
		b := randDense(r, n, k)
		c := randDense(r, k, m)
		sum := FromSlice(n, k, CopyVec(a.Data))
		AddVec(sum.Data, b.Data)
		left, right, bc := NewDense(n, m), NewDense(n, m), NewDense(n, m)
		MatMulInto(left, sum, c)
		MatMulInto(right, a, c)
		MatMulInto(bc, b, c)
		AddVec(right.Data, bc.Data)
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulIntoReusesBuffer(t *testing.T) {
	r := xrand.New(6)
	a := randDense(r, 4, 5)
	b := randDense(r, 5, 3)
	dst := NewDense(4, 3)
	Fill(dst.Data, 99) // garbage that must be overwritten
	MatMulInto(dst, a, b)
	if !Equal(dst, naiveMatMul(a, b), 1e-10) {
		t.Fatal("MatMulInto did not overwrite destination correctly")
	}
}

func BenchmarkMatMul128(b *testing.B) {
	r := xrand.New(1)
	x := randDense(r, 128, 128)
	y := randDense(r, 128, 128)
	dst := NewDense(128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, x, y)
	}
}
