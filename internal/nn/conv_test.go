package nn

import (
	"fmt"
	"math"
	"testing"

	"fedwcm/internal/loss"
	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// randSigned fills an n×d matrix with normals in which roughly a fifth of
// the entries are +0 or -0 — what ReLU and its backward mask feed the
// convolutions, and the values on which a sloppy "skip vs add zero"
// argument would show.
func randSigned(seed uint64, n, d int) *tensor.Dense {
	x := randInput(seed, n, d)
	r := xrand.New(seed ^ 0x5eed)
	for i := range x.Data {
		switch r.Intn(10) {
		case 0:
			x.Data[i] = 0
		case 1:
			x.Data[i] = math.Copysign(0, -1)
		}
	}
	return x
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if g, w := math.Float64bits(got[i]), math.Float64bits(want[i]); g != w {
			t.Fatalf("%s[%d] = %v (bits %#x), want %v (bits %#x)", name, i, got[i], g, want[i], w)
		}
	}
}

// TestConvShiftedMatchesGeneral holds the rows Forward's GEMM reads
// through its table — windows of the padded copies — to the general
// im2col loops bit for bit, on kernels up to 5×5 and on images narrower
// than the kernel's reach (where a shift skips whole rows). Forward
// itself is held to the general loops by TestConvForwardMatchesReference,
// and the shifted backward by TestConvBackwardMatchesReference.
func TestConvShiftedMatchesGeneral(t *testing.T) {
	for _, k := range []int{1, 3, 5} {
		for _, hw := range [][2]int{{5, 7}, {7, 4}, {2, 3}, {1, 6}, {6, 1}, {12, 11}} {
			h, w := hw[0], hw[1]
			l := NewConv2D(xrand.New(1), 2, h, w, 3, k, 1, (k-1)/2)
			if l.taps == nil {
				t.Fatalf("k=%d %dx%d: expected same-size geometry", k, h, w)
			}
			name := fmt.Sprintf("k=%d %dx%d", k, h, w)
			rows, p := l.InC*k*k, h*w

			img := randSigned(uint64(10*k+h), 1, l.InC*p).Data
			got, want := tensor.NewDense(rows, p), tensor.NewDense(rows, p)
			l.padSample(img)
			for i, off := range l.rows {
				copy(got.Row(i), l.sc.pad[off:off+p])
			}
			l.im2colGeneral(img, want)
			sameBits(t, name+" im2col", got.Data, want.Data)
		}
	}
}

// refConvForward is Conv2D.Forward as every golden recorded it: per
// sample, the general im2col matrix, MatMulInto with the weights, then
// the bias added element by element.
func refConvForward(l *Conv2D, x *tensor.Dense) *tensor.Dense {
	k, p := l.InC*l.KH*l.KW, l.OutH*l.OutW
	out := tensor.NewDense(x.R, l.OutDim())
	for s := 0; s < x.R; s++ {
		cols := tensor.NewDense(k, p)
		l.im2colGeneral(x.Row(s), cols)
		seg := tensor.FromSlice(l.OutC, p, out.Row(s))
		tensor.MatMulInto(seg, l.wview, cols)
		for oc := 0; oc < l.OutC; oc++ {
			b := l.B.Data[oc]
			row := seg.Row(oc)
			for i := range row {
				row[i] += b
			}
		}
	}
	return out
}

// TestConvForwardMatchesReference holds Forward to refConvForward bit for
// bit on every convGeometries entry, with ±0 among the inputs and a bias
// of normals and ±0, for batches from one sample to a full 50-row local
// batch, and twice in a row, so the second pass runs on the scratch the
// first left behind.
func TestConvForwardMatchesReference(t *testing.T) {
	for _, g := range convGeometries {
		for _, n := range []int{1, 2, 5, 8, 50} {
			l := NewConv2D(xrand.New(3), g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad)
			copy(l.B.Data, randSigned(6, 1, g.outC).Data)
			for pass := 0; pass < 2; pass++ {
				x := randSigned(uint64(4+pass), n, g.inC*g.h*g.w)
				want := refConvForward(l, x)
				got := l.Forward(x, true)
				sameBits(t, fmt.Sprintf("%s n=%d pass=%d", g.name, n, pass), got.Data, want.Data)
			}
		}
	}
}

// refConvBackward is Conv2D.Backward as first written and as every golden
// recorded it at GOMAXPROCS=2: general im2col/col2im, dW = dOut·colsᵀ per
// sample, two halves split at ⌈n/2⌉, fresh buffers throughout.
func refConvBackward(l *Conv2D, x, dout *tensor.Dense) (dw, db []float64, dx *tensor.Dense) {
	n, k, p := x.R, l.InC*l.KH*l.KW, l.OutH*l.OutW
	dw, db = make([]float64, len(l.Wt.Data)), make([]float64, len(l.B.Data))
	dx = tensor.NewDense(n, x.C)
	mid := (n + 1) / 2
	for _, half := range [][2]int{{0, mid}, {mid, n}} {
		if half[0] == half[1] {
			continue
		}
		dwPart, dbPart := make([]float64, len(dw)), make([]float64, len(db))
		for s := half[0]; s < half[1]; s++ {
			cols := tensor.NewDense(k, p)
			l.im2colGeneral(x.Row(s), cols)
			dseg := tensor.FromSlice(l.OutC, p, dout.Row(s))
			dwSeg := tensor.NewDense(l.OutC, k)
			tensor.MatMulBTInto(dwSeg, dseg, cols)
			tensor.AddVec(dwPart, dwSeg.Data)
			for oc := 0; oc < l.OutC; oc++ {
				dbPart[oc] += tensor.Sum(dseg.Row(oc))
			}
			dcols := tensor.NewDense(k, p)
			tensor.MatMulATInto(dcols, l.wview, dseg)
			l.col2imGeneral(dcols, dx.Row(s))
		}
		tensor.AddVec(dw, dwPart)
		tensor.AddVec(db, dbPart)
	}
	return dw, db, dx
}

// convGeometries: a same-size convolution (shifted path), a strided one
// (general path) and ResNetLite's own stage-2 body conv, whose 36-column
// products run the 4×4 remainder tile. Then the shifted taps as ResNetLite
// meets them at 12×12 — its stem, whose three input channels give every
// tap's dW product a 3-row tail (on AVX-512 hosts a 2-row and a 1-row
// strip, in place), and its stage-1 body conv — and a 5×5 kernel on images so small that some taps lie wholly
// outside and others wrap by more than one column.
var convGeometries = []struct {
	name                            string
	inC, h, w, outC, k, stride, pad int
}{
	{"same-size", 3, 6, 5, 4, 3, 1, 1},
	{"stride-2", 3, 7, 6, 5, 3, 2, 1},
	{"resnetlite-6x6", 16, 6, 6, 16, 3, 1, 1},
	{"resnetlite-stem", 3, 12, 12, 8, 3, 1, 1},
	{"resnetlite-12x12", 8, 12, 12, 8, 3, 1, 1},
	{"5x5-on-6x1", 2, 6, 1, 3, 5, 1, 2},
	{"5x5-on-2x3", 2, 2, 3, 3, 5, 1, 2},
}

// TestConvBackwardMatchesReference holds Backward (dW, dB and dx) and
// backwardParams (dW and dB) to refConvBackward bit for bit, on inputs
// with ±0, for batches from one sample to a full 50-row local batch.
func TestConvBackwardMatchesReference(t *testing.T) {
	for _, g := range convGeometries {
		for _, n := range []int{1, 2, 5, 8, 50} {
			newLayer := func() *Conv2D {
				return NewConv2D(xrand.New(3), g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad)
			}
			l := newLayer()
			x, dout := randSigned(4, n, g.inC*g.h*g.w), randSigned(5, n, l.OutDim())
			wantW, wantB, wantX := refConvBackward(l, x, dout)
			l.Forward(x, true)
			dx := l.Backward(dout)
			name := fmt.Sprintf("%s n=%d", g.name, n)
			sameBits(t, name+" dW", l.Wt.Grad, wantW)
			sameBits(t, name+" dB", l.B.Grad, wantB)
			sameBits(t, name+" dx", dx.Data, wantX.Data)

			p := newLayer()
			p.Forward(x, true)
			p.backwardParams(dout)
			sameBits(t, name+" backwardParams dW", p.Wt.Grad, wantW)
			sameBits(t, name+" backwardParams dB", p.B.Grad, wantB)
		}
	}
}

// TestConvBackwardIndependentOfWorkers: the gradient bits must not depend
// on anything but the inputs — a cell's artifact is addressed by its spec
// alone. Each configuration runs two backward passes, the second into the
// non-zero Grad the first left, because (G+A)+B and (G+B)+A differ even
// when A+B and B+A do not; repeats catch an order that depends on state a
// previous run left behind.
func TestConvBackwardIndependentOfWorkers(t *testing.T) {
	repeats := 10
	if testing.Short() {
		repeats = 3
	}
	batches := []int{1, 2, 3, 9, 32}

	type vec struct {
		name string
		v    []float64
	}
	check := func(t *testing.T, run func(n int) []vec) {
		for _, n := range batches {
			want := run(n)
			for rep := 0; rep < repeats; rep++ {
				for i, got := range run(n) {
					name := fmt.Sprintf("n=%d rep=%d %s", n, rep, got.name)
					sameBits(t, name, got.v, want[i].v)
				}
			}
		}
	}

	for _, g := range convGeometries[:2] {
		t.Run(g.name, func(t *testing.T) {
			check(t, func(n int) []vec {
				l := NewConv2D(xrand.New(3), g.inC, g.h, g.w, g.outC, g.k, g.stride, g.pad)
				x, dout := randSigned(4, n, g.inC*g.h*g.w), randSigned(5, n, l.OutDim())
				var dx *tensor.Dense
				for pass := 0; pass < 2; pass++ {
					l.Forward(x, true)
					dx = l.Backward(dout)
				}
				return []vec{{"Wt.Grad", l.Wt.Grad}, {"B.Grad", l.B.Grad}, {"dx", dx.Data}}
			})
		})
	}
	t.Run("resnetlite-step", func(t *testing.T) {
		check(t, func(n int) []vec {
			net := NewResNetLite(1, 3, 12, 12, 10, 8)
			x, labels := randInput(2, n, 3*12*12), randLabels(3, n, 10)
			var dx *tensor.Dense
			for pass := 0; pass < 2; pass++ {
				_, dl := loss.CrossEntropy{}.LossAndGrad(net.Forward(x, true), labels)
				dx = net.Backward(dl)
				net.Step(0.05)
			}
			return []vec{{"grads", gradVector(net)}, {"weights", net.Vector()}, {"dx", dx.Data}}
		})
	})
}

// TestResNetLiteStepAllocs: a steady-state training step allocates
// nothing — no layer spawns a goroutine or builds a closure, and every
// buffer is a workspace, layer-owned scratch or a pooled GEMM panel.
func TestResNetLiteStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the GEMM panel pool allocates under -race")
	}
	stepAllocs := func(n int) float64 {
		net := NewResNetLite(1, 3, 12, 12, 10, 8)
		x, labels := randInput(2, n, 3*12*12), randLabels(3, n, 10)
		dl := tensor.NewDense(n, 10)
		step := func() {
			net.ZeroGrad()
			loss.CrossEntropy{}.LossAndGradInto(dl, net.Forward(x, true), labels)
			net.Backward(dl)
			net.Step(0.1)
		}
		step() // grow the workspaces and scratch
		return testing.AllocsPerRun(10, step)
	}
	a8, a32 := stepAllocs(8), stepAllocs(32)
	if a32 != 0 {
		t.Errorf("ResNetLite step at batch 32 allocates %v objects, want 0", a32)
	}
	if a8 != a32 {
		t.Errorf("ResNetLite step allocates %v objects at batch 8 and %v at batch 32: something is per-sample", a8, a32)
	}
}
