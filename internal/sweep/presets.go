package sweep

import "fedwcm/internal/fl"

// datasetPreset is the per-dataset experiment configuration: the paper uses
// 100 clients / 10% participation / 500 rounds for the 10-class datasets
// and 40 clients / 300 rounds for CIFAR-100 and ImageNet. We keep client
// counts and participation, reduce rounds (convergence is faster at our
// scale), and size the synthetic datasets so head classes match the real
// datasets' order of magnitude.
type datasetPreset struct {
	Clients int
	Sample  int
	Rounds  int
	Scale   float64
}

var datasetPresets = map[string]datasetPreset{
	"fmnist-syn":   {Clients: 100, Sample: 10, Rounds: 100, Scale: 5},
	"svhn-syn":     {Clients: 100, Sample: 10, Rounds: 100, Scale: 4},
	"cifar10-syn":  {Clients: 100, Sample: 10, Rounds: 100, Scale: 5},
	"cifar100-syn": {Clients: 40, Sample: 4, Rounds: 120, Scale: 1},
	"imagenet-syn": {Clients: 40, Sample: 4, Rounds: 120, Scale: 1},
	"svhn-img":     {Clients: 20, Sample: 5, Rounds: 40, Scale: 1},
	"cifar10-img":  {Clients: 20, Sample: 5, Rounds: 40, Scale: 1},
}

// presetFor returns the per-dataset configuration, falling back to a small
// generic preset for datasets outside the paper's evaluation set.
func presetFor(dataset string) datasetPreset {
	if p, ok := datasetPresets[dataset]; ok {
		return p
	}
	return datasetPreset{Clients: 20, Sample: 10, Rounds: 60, Scale: 1}
}

// PresetSpec builds the RunSpec for one grid cell under the dataset preset,
// applying the effort multiplier. It is the single source of the evaluation
// defaults (learning rates, local epochs, batch size): grid expansion builds
// every cell from it.
func PresetSpec(dataset, method string, beta, imf float64, seed uint64, effort float64) RunSpec {
	p := presetFor(dataset)
	return RunSpec{
		Dataset: dataset,
		Method:  method,
		Beta:    beta,
		IF:      imf,
		Clients: p.Clients,
		Scale:   ScaleData(p.Scale, effort),
		Cfg: fl.Config{
			Rounds:        ScaleRounds(p.Rounds, effort),
			SampleClients: p.Sample,
			LocalEpochs:   5,
			BatchSize:     50,
			EtaL:          0.1,
			EtaG:          1,
			Seed:          seed,
			EvalEvery:     5,
		},
	}
}

// ScaleRounds applies the effort multiplier with a sane floor.
func ScaleRounds(rounds int, effort float64) int {
	r := int(float64(rounds) * effort)
	if r < 8 {
		r = 8
	}
	return r
}

// ScaleData applies the effort multiplier to the dataset scale factor.
func ScaleData(scale, effort float64) float64 {
	s := scale * effort
	if s < 0.08 {
		s = 0.08
	}
	return s
}

// SampleFor resolves a participation rate to a per-round client count,
// never below one. Grid expansion and renderers share it so a rate axis
// labels the same cells it produced.
func SampleFor(clients int, rate float64) int {
	n := int(float64(clients)*rate + 0.5)
	if n < 1 {
		n = 1
	}
	return n
}
