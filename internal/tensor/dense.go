package tensor

import "fmt"

// Dense is a row-major matrix of float64. The zero value is not usable;
// construct with NewDense or FromSlice.
//
// Most NN math works on (batch × features) matrices, so Dense is 2-D.
// Higher-rank activations (e.g. conv feature maps) are stored as a Dense
// whose column dimension is channels*height*width, with the layout managed
// by the layer that owns it.
type Dense struct {
	R, C int
	Data []float64 // len == R*C, row-major
}

// NewDense allocates an r×c zero matrix.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("tensor: NewDense with negative dimension")
	}
	return &Dense{R: r, C: c, Data: make([]float64, r*c)}
}

// FromSlice wraps data (not copied) as an r×c matrix.
func FromSlice(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d elements, got %d", r, c, r*c, len(data)))
	}
	return &Dense{R: r, C: c, Data: data}
}

// ReuseDense returns an r×c matrix, recycling d (header and backing array)
// when its capacity suffices and allocating a fresh matrix otherwise.
// Contents are unspecified — callers must fully overwrite (or Zero) them.
// Recycling mutates d's header in place, so the previous shape becomes
// invalid; callers own the workspace and must not hand the old view out.
func ReuseDense(d *Dense, r, c int) *Dense {
	if d == nil || cap(d.Data) < r*c {
		return NewDense(r, c)
	}
	d.R, d.C = r, c
	d.Data = d.Data[:r*c]
	return d
}

// Row returns row i as a slice view (not a copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.C : (i+1)*m.C] }

// ZeroAll sets all elements to zero.
func (m *Dense) ZeroAll() { Zero(m.Data) }

// AddRowVec adds vector v (len C) to every row: one masked AVX-512 pass
// over the matrix where the host has it, else AddVec row by row.
func (m *Dense) AddRowVec(v []float64) {
	if len(v) != m.C {
		panic("tensor: AddRowVec length mismatch")
	}
	if hasAVX512 && m.R > 0 && m.C > 0 {
		addRowVecAVX512(&m.Data[0], &v[0], int64(m.R), int64(m.C))
		return
	}
	for i := 0; i < m.R; i++ {
		AddVec(m.Row(i), v)
	}
}

// AddColVec adds v[r] (len R) to every element of row r, as row[i] + v[r]:
// the per-channel bias of a channel-major feature map. One masked
// AVX-512 pass over the matrix where the host has it, else a scalar loop.
func (m *Dense) AddColVec(v []float64) {
	if len(v) != m.R {
		panic("tensor: AddColVec length mismatch")
	}
	if hasAVX512 && m.R > 0 && m.C > 0 {
		addColVecAVX512(&m.Data[0], &v[0], int64(m.R), int64(m.C))
		return
	}
	for r, b := range v {
		row := m.Row(r)
		for i := range row {
			row[i] += b
		}
	}
}

// ColSumsInto writes the per-column sums into dst (len C), overwriting it:
// zeroed, then rows added in ascending order. With AVX-512 it is one
// masked pass that keeps each column's sum in a register.
func (m *Dense) ColSumsInto(dst []float64) {
	if len(dst) != m.C {
		panic("tensor: ColSumsInto length mismatch")
	}
	if hasAVX512 && m.R > 0 && m.C > 0 {
		colSumsAVX512(&dst[0], &m.Data[0], int64(m.R), int64(m.C))
		return
	}
	Zero(dst)
	for i := 0; i < m.R; i++ {
		AddVec(dst, m.Row(i))
	}
}

// Equal reports whether two matrices have identical shape and elements
// within tolerance tol.
func Equal(a, b *Dense, tol float64) bool {
	if a.R != b.R || a.C != b.C {
		return false
	}
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < -tol || d > tol {
			return false
		}
	}
	return true
}

func (m *Dense) String() string {
	return fmt.Sprintf("Dense(%dx%d)", m.R, m.C)
}
