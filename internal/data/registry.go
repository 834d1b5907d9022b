package data

import (
	"fmt"
	"sort"
)

// Spec is a registered stand-in dataset: its generator parameters plus the
// default experiment sizes. Feature-mode specs drive the big sweeps; image
// specs exercise the CNN path.
type Spec struct {
	Name     string
	Classes  int
	Gaussian *GaussianSpec
	Image    *ImageSpec
	// TrainHead is the head-class sample budget at IF=1; with imbalance f
	// the class profile is LongTailCounts(TrainHead, Classes, f).
	TrainHead int
	// TestPerClass sizes the balanced test split, as in the paper.
	TestPerClass int
}

// registry maps dataset names to specs. The five feature-mode entries mirror
// the paper's datasets in class count and relative difficulty (Sep/Noise
// tuned so FedAvg accuracy lands near the paper's ballpark at default
// settings); the -img entries are image-mode twins for the CNN path.
var registry = map[string]*Spec{
	"fmnist-syn": {
		Name: "fmnist-syn", Classes: 10, TrainHead: 900, TestPerClass: 150,
		Gaussian: &GaussianSpec{Classes: 10, Dim: 32, Sep: 4.2, Noise: 1.0, SubModes: 2},
	},
	"svhn-syn": {
		Name: "svhn-syn", Classes: 10, TrainHead: 1000, TestPerClass: 150,
		Gaussian: &GaussianSpec{Classes: 10, Dim: 48, Sep: 4.4, Noise: 1.0, SubModes: 2},
	},
	"cifar10-syn": {
		Name: "cifar10-syn", Classes: 10, TrainHead: 1000, TestPerClass: 150,
		Gaussian: &GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1.0, SubModes: 2},
	},
	"cifar100-syn": {
		Name: "cifar100-syn", Classes: 100, TrainHead: 140, TestPerClass: 25,
		Gaussian: &GaussianSpec{Classes: 100, Dim: 96, Sep: 3.8, Noise: 1.0, SubModes: 1},
	},
	"imagenet-syn": {
		Name: "imagenet-syn", Classes: 150, TrainHead: 110, TestPerClass: 16,
		Gaussian: &GaussianSpec{Classes: 150, Dim: 96, Sep: 3.4, Noise: 1.0, SubModes: 1},
	},
	"svhn-img": {
		Name: "svhn-img", Classes: 10, TrainHead: 220, TestPerClass: 40,
		Image: &ImageSpec{Classes: 10, Chans: 3, H: 12, W: 12, Contrast: 1.0, Noise: 0.5},
	},
	"cifar10-img": {
		Name: "cifar10-img", Classes: 10, TrainHead: 220, TestPerClass: 40,
		Image: &ImageSpec{Classes: 10, Chans: 3, H: 12, W: 12, Contrast: 0.8, Noise: 0.7},
	},
}

// Lookup returns the spec for a registered dataset name.
func Lookup(name string) (*Spec, error) {
	s, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("data: unknown dataset %q (known: %v)", name, Names())
	}
	return s, nil
}

// Names lists registered dataset names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// generate dispatches to whichever generator the spec carries.
func (s *Spec) generate(seed, streamTag uint64, counts []int) *Dataset {
	switch {
	case s.Gaussian != nil:
		return s.Gaussian.Generate(seed, streamTag, counts)
	case s.Image != nil:
		return s.Image.Generate(seed, streamTag, counts)
	default:
		panic("data: spec has no generator")
	}
}

// Dim returns the flat feature width of generated samples.
func (s *Spec) Dim() int {
	switch {
	case s.Gaussian != nil:
		return s.Gaussian.Dim
	case s.Image != nil:
		return s.Image.Chans * s.Image.H * s.Image.W
	default:
		return 0
	}
}

// MakeScaled generates the long-tailed train split (imbalance factor f) and
// the balanced test split for this spec, with the train head count and the
// per-class test count scaled by factor (sweeps shrink workloads while
// preserving shape). Both derive class structure from the same seed so they
// share prototypes, while their sample noise streams are independent.
func (s *Spec) MakeScaled(seed uint64, imbalance, factor float64) (train, test *Dataset) {
	head := int(float64(s.TrainHead) * factor)
	if head < s.Classes {
		head = s.Classes
	}
	trainCounts := LongTailCounts(head, s.Classes, imbalance)
	testPC := int(float64(s.TestPerClass) * factor)
	if testPC < 2 {
		testPC = 2
	}
	testCounts := UniformCounts(testPC, s.Classes)
	train = s.generate(seed, 1, trainCounts)
	test = s.generate(seed, 2, testCounts)
	return train, test
}
