// Momentum collapse demo (the paper's §4 motivation, Figure 4 in
// miniature): train FedCM on a balanced and on a long-tailed split of the
// same data, recording test accuracy, mean neuron concentration, and the
// tail-class feature geometry. Under the long tail, FedCM's concentration
// spikes while its accuracy slides — the "minority collapse" signature —
// and FedWCM on the same data stays flat.
//
//	go run ./examples/momentum_collapse
package main

import (
	"fmt"
	"log"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
)

func run(method string, imf float64) *fl.History {
	spec := sweep.RunSpec{
		Dataset: "cifar10-syn",
		Method:  method,
		Beta:    0.1,
		IF:      imf,
		Clients: 50,
		Scale:   2,
		Cfg: fl.Config{
			Rounds: 50, SampleClients: 10, LocalEpochs: 5, BatchSize: 50,
			EtaL: 0.1, EtaG: 1, Seed: 11, EvalEvery: 5,
		},
		// The "collapse" probe records neuron concentration on a fixed test
		// batch into every evaluation's Metrics.
		Probes: []string{"collapse"},
	}
	hist, err := spec.Run()
	if err != nil {
		log.Fatal(err)
	}
	return hist
}

func main() {
	type setting struct {
		method string
		imf    float64
	}
	settings := []setting{
		{"fedcm", 1},     // balanced: momentum is safe
		{"fedcm", 0.05},  // long tail: momentum destabilises
		{"fedwcm", 0.05}, // the fix
	}
	for _, st := range settings {
		hist := run(st.method, st.imf)
		fmt.Printf("%s IF=%g\n", st.method, st.imf)
		fmt.Printf("  %-8s %-10s %s\n", "round", "test acc", "neuron concentration")
		for _, s := range hist.Stats {
			fmt.Printf("  %-8d %-10.3f %.3f\n", s.Round, s.TestAcc, s.Metrics["concentration"])
		}
		fmt.Println()
	}
	fmt.Println("Reading the numbers: balanced FedCM keeps low, stable concentration;")
	fmt.Println("long-tailed FedCM shows rising/spiky concentration with sliding accuracy;")
	fmt.Println("FedWCM holds both steady on the identical long-tailed data.")
}
