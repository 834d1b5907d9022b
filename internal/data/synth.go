package data

import (
	"math"

	"fedwcm/internal/tensor"
	"fedwcm/internal/xrand"
)

// GaussianSpec describes a class-conditional Gaussian mixture in feature
// space. Each class gets a prototype drawn uniformly on the sphere of radius
// Sep; samples are prototype + N(0, Noise²·I). The Sep/Noise ratio controls
// Bayes accuracy, which is how the registry tunes the relative difficulty of
// the five stand-in datasets.
type GaussianSpec struct {
	Classes int
	Dim     int
	Sep     float64
	Noise   float64
	// SubModes > 1 gives each class several prototype modes, making classes
	// non-convex and rewarding non-linear models.
	SubModes int
}

// prototypes draws the class (and sub-mode) prototype matrix deterministically
// from seed, independent of how many samples are later generated.
func (s GaussianSpec) prototypes(seed uint64) *tensor.Dense {
	modes := s.SubModes
	if modes < 1 {
		modes = 1
	}
	r := xrand.New(xrand.DeriveSeed(seed, 0xbeef))
	protos := tensor.NewDense(s.Classes*modes, s.Dim)
	for i := 0; i < protos.R; i++ {
		row := protos.Row(i)
		r.FillNorm(row, 0, 1)
		norm := tensor.Norm2(row)
		if norm == 0 {
			row[0] = 1
			norm = 1
		}
		tensor.Scale(row, s.Sep/norm)
	}
	return protos
}

// Generate synthesises counts[c] samples of each class c. The prototype set
// depends only on seed, so train and test splits generated with the same
// seed share class structure while their noise streams stay independent
// (pass a distinct streamTag for each split).
func (s GaussianSpec) Generate(seed, streamTag uint64, counts []int) *Dataset {
	if len(counts) != s.Classes {
		panic("data: GaussianSpec.Generate counts length mismatch")
	}
	modes := s.SubModes
	if modes < 1 {
		modes = 1
	}
	protos := s.prototypes(seed)
	total := 0
	for _, c := range counts {
		total += c
	}
	x := tensor.NewDense(total, s.Dim)
	y := make([]int, total)
	r := xrand.New(xrand.DeriveSeed(seed, streamTag, 0xda7a))
	row := 0
	for c := 0; c < s.Classes; c++ {
		for i := 0; i < counts[c]; i++ {
			mode := 0
			if modes > 1 {
				mode = r.Intn(modes)
			}
			dst := x.Row(row)
			r.FillNorm(dst, 0, s.Noise)
			tensor.AddVec(dst, protos.Row(c*modes+mode))
			y[row] = c
			row++
		}
	}
	return &Dataset{X: x, Y: y, Classes: s.Classes}
}

// ImageSpec describes a procedural pattern-image generator: each class owns
// a random oriented sinusoidal grating per channel; samples add per-sample
// phase jitter and pixel noise. It exercises the Conv2D path with genuinely
// spatial class structure.
type ImageSpec struct {
	Classes  int
	Chans    int
	H, W     int
	Contrast float64 // grating amplitude
	Noise    float64 // pixel noise sigma
}

type grating struct {
	fx, fy, phase float64
}

func (s ImageSpec) gratings(seed uint64) []grating {
	r := xrand.New(xrand.DeriveSeed(seed, 0x9a7))
	gs := make([]grating, s.Classes*s.Chans)
	for i := range gs {
		gs[i] = grating{
			fx:    r.Float64Range(0.5, 2.5) * math.Pi / float64(s.W),
			fy:    r.Float64Range(0.5, 2.5) * math.Pi / float64(s.H),
			phase: r.Float64Range(0, 2*math.Pi),
		}
	}
	return gs
}

// Generate synthesises counts[c] images per class.
func (s ImageSpec) Generate(seed, streamTag uint64, counts []int) *Dataset {
	if len(counts) != s.Classes {
		panic("data: ImageSpec.Generate counts length mismatch")
	}
	gs := s.gratings(seed)
	total := 0
	for _, c := range counts {
		total += c
	}
	dim := s.Chans * s.H * s.W
	x := tensor.NewDense(total, dim)
	y := make([]int, total)
	r := xrand.New(xrand.DeriveSeed(seed, streamTag, 0x17a6e))
	row := 0
	for c := 0; c < s.Classes; c++ {
		for i := 0; i < counts[c]; i++ {
			img := x.Row(row)
			jitter := r.Float64Range(-0.6, 0.6)
			for ch := 0; ch < s.Chans; ch++ {
				g := gs[c*s.Chans+ch]
				base := ch * s.H * s.W
				for py := 0; py < s.H; py++ {
					for px := 0; px < s.W; px++ {
						v := s.Contrast * math.Sin(float64(g.fx*float64(px))*2+float64(g.fy*float64(py))*2+g.phase+jitter)
						img[base+py*s.W+px] = float64(v) + float64(s.Noise*r.NormFloat64())
					}
				}
			}
			y[row] = c
			row++
		}
	}
	return &Dataset{X: x, Y: y, Classes: s.Classes, Chans: s.Chans, H: s.H, W: s.W}
}
