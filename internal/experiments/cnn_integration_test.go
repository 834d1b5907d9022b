package experiments

import (
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

// TestCNNFederatedIntegration exercises the full image path end to end:
// pattern-image dataset → ResNetLite → federated rounds with FedWCM.
// This is the paper's SVHN/CIFAR configuration in miniature (the big sweeps
// use the feature-mode stand-ins for tractability; see DESIGN.md).
func TestCNNFederatedIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN integration run skipped in -short mode")
	}
	spec := sweep.RunSpec{
		Dataset: "svhn-img",
		Method:  "fedwcm",
		Beta:    0.3,
		IF:      0.2,
		Clients: 6,
		Model:   "resnet",
		Scale:   0.5,
		Cfg: fl.Config{
			Rounds: 8, SampleClients: 3, LocalEpochs: 2, BatchSize: 20,
			EtaL: 0.05, EtaG: 1, Seed: 7, EvalEvery: 4,
		},
	}
	hist, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	// The pattern classes are strongly structured; even a short run must
	// beat chance (0.1) decisively.
	if hist.BestAcc() < 0.3 {
		t.Fatalf("CNN federated run barely above chance: %v", hist.BestAcc())
	}
	for _, s := range hist.Stats {
		if a, ok := s.Metrics["alpha"]; ok && (a < 0.1 || a > 0.99) {
			t.Fatalf("alpha out of range on CNN path: %v", a)
		}
	}
}

// TestCNNMethodsAgreeOnShapes runs FedAvg and FedCM on the image path to
// confirm every method's plumbing handles convolutional parameter vectors
// (BatchNorm2D stats included).
func TestCNNMethodsAgreeOnShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("CNN shape run skipped in -short mode")
	}
	for _, m := range []string{"fedavg", "fedcm"} {
		spec := sweep.RunSpec{
			Dataset: "cifar10-img", Method: m, Beta: 0.5, IF: 0.5,
			Clients: 4, Model: "resnet", Scale: 0.3,
			Cfg: fl.Config{Rounds: 3, SampleClients: 2, LocalEpochs: 1,
				BatchSize: 16, EtaL: 0.05, EtaG: 1, Seed: 8, EvalEvery: 3},
		}
		hist, err := spec.Run()
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if len(hist.Stats) == 0 {
			t.Fatalf("%s: no evaluations", m)
		}
	}
}
