package tensor

import "testing"

func TestDenseBasics(t *testing.T) {
	m := NewDense(2, 3)
	row := m.Row(1)
	row[0] = 7
	if m.Data[3] != 7 {
		t.Fatal("Row should be a view, not a copy")
	}
}

func TestAddRowVecAndColSums(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	m.AddRowVec([]float64{10, 20})
	if m.Data[0] != 11 || m.Data[3] != 24 {
		t.Fatalf("AddRowVec got %v", m.Data)
	}
	cs := []float64{-1, -1} // garbage that must be overwritten
	m.ColSumsInto(cs)
	if cs[0] != 24 || cs[1] != 46 {
		t.Fatalf("ColSumsInto got %v", cs)
	}
}

// TestTransposeInvolution checks packTranspose, the production transpose,
// against itself: transposing twice is the identity.
func TestTransposeInvolution(t *testing.T) {
	for _, s := range [][2]int{{1, 1}, {1, 9}, {8, 3}, {13, 29}} {
		r, c := s[0], s[1]
		src := make([]float64, r*c)
		for i := range src {
			src[i] = float64(i)
		}
		tr, back := make([]float64, r*c), make([]float64, r*c)
		packTranspose(tr, src, r, c)
		packTranspose(back, tr, c, r)
		if !Equal(FromSlice(r, c, back), FromSlice(r, c, src), 0) {
			t.Fatalf("packTranspose twice (%d×%d) is not the identity", r, c)
		}
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(NewDense(1, 2), NewDense(2, 1), 1) {
		t.Fatal("different shapes must not be Equal")
	}
}

func TestFromSlicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestParallelForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 1001} {
		hits := make([]int32, n)
		ParallelFor(n, 3, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestSetMaxWorkersRestores(t *testing.T) {
	prev := SetMaxWorkers(1)
	if got := SetMaxWorkers(prev); got != 1 {
		t.Fatalf("SetMaxWorkers returned %d, want 1", got)
	}
}
