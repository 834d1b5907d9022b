package experiments

import (
	"fmt"

	"fedwcm/internal/data"
	"fedwcm/internal/he"
	"fedwcm/internal/partition"
	"fedwcm/internal/sweep"
	"fedwcm/internal/xrand"
)

// table5 (Appendix A): FedGraB-style quantity-skewed partition, comparing
// FedAvg / FedCM / FedWCM-X across IFs at β=0.1.
func init() {
	ifs := []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01}
	methodsList := []string{"fedavg", "fedcm", "fedwcm-x"}
	register(&Experiment{
		ID:    "table5",
		Title: "Table 5 (Appendix A): FedGraB partition, FedAvg/FedCM/FedWCM-X",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods:   methodsList,
				IFs:       ifs,
				Partition: "fedgrab",
				Seeds:     []uint64{opt.Seed},
				Effort:    opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			headers := []string{"method"}
			for _, f := range ifs {
				headers = append(headers, fmt.Sprintf("IF=%g", f))
			}
			t := &sweep.Table{Title: "Table 5 (beta=0.1, FedGraB partition)", Headers: headers}
			for _, m := range methodsList {
				row := []string{m}
				for _, f := range ifs {
					row = append(row, res.CellValue(sweep.Axes{Method: m, IF: f}))
				}
				t.AddRow(row...)
			}
			t.Render(opt.Out)
			return nil
		},
	})
}

// fig11 (Appendix A): the data distribution produced by the FedGraB-style
// partition — quantity-skew statistics and a size histogram. Hand-rolled:
// it measures the partitioner, not a training run.
func init() {
	register(&Experiment{
		ID:    "fig11",
		Title: "Figure 11 (Appendix A): client size distribution under FedGraB partition",
		Run: func(opt Options) error {
			spec, err := data.Lookup("cifar10-syn")
			if err != nil {
				return err
			}
			train := spec.MakeTrain(opt.Seed, 0.1, sweep.ScaleData(5, opt.Effort))
			rng := xrand.New(xrand.DeriveSeed(opt.Seed, 0x9a27))
			for _, mode := range []string{"fedgrab", "equal"} {
				var part *partition.Partition
				if mode == "fedgrab" {
					part = partition.FedGraBStyle(rng, train, 100, 0.1)
				} else {
					part = partition.EqualQuantity(rng, train, 100, 0.1)
				}
				st := partition.ComputeStats(part, train.ClassProportions())
				fmt.Fprintf(opt.Out, "%s partition: %s\n", mode, st)
				fmt.Fprintln(opt.Out, partition.Histogram(part, 8))
			}
			return nil
		},
	})
}

// fig12 (Appendix A): method curves under the FedGraB partition, with
// FedWCM-X as "ours".
func init() {
	methodsList := []string{
		"fedwcm-x", "fedavg", "balancefl", "fedgrab",
		"fedcm", "fedcm+focal", "fedcm+balancesampler",
	}
	register(&Experiment{
		ID:    "fig12",
		Title: "Figure 12 (Appendix A): methods under FedGraB partition (beta=0.1, IF=0.1)",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods:   methodsList,
				Partition: "fedgrab",
				Seeds:     []uint64{opt.Seed},
				Effort:    opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			var rounds []int
			series := make([][]float64, len(methodsList))
			for i, m := range methodsList {
				r, a := res.CurveOf(sweep.Axes{Method: m})
				if rounds == nil {
					rounds = r
				}
				series[i] = a
			}
			sweep.SeriesTable("Figure 12 (test accuracy, FedGraB partition)", rounds, methodsList, series).Render(opt.Out)
			return nil
		},
	})
}

// table6 (Appendix C): plaintext vs ciphertext sizes for the HE-protected
// distribution gathering, across class counts. Hand-rolled: it measures the
// HE protocol, not a training run.
func init() {
	register(&Experiment{
		ID:    "table6",
		Title: "Table 6 (Appendix C): HE plaintext/ciphertext sizes",
		Run: func(opt Options) error {
			rng := xrand.New(opt.Seed)
			proto := he.DefaultProtocol()
			t := &sweep.Table{
				Title: "Table 6 (Paillier 1024-bit, 32-bit slots, 100 clients)",
				Headers: []string{"classes", "plaintext(B)", "ciphertext(B)", "ciphertexts",
					"upload-total(B)", "enc/client", "aggregate", "decrypt"},
			}
			for _, classes := range []int{10, 20, 50, 100} {
				counts := make([][]int, 100)
				for k := range counts {
					counts[k] = make([]int, classes)
					for c := range counts[k] {
						counts[k][c] = rng.Intn(500)
					}
				}
				_, rep, err := proto.Run(counts)
				if err != nil {
					return err
				}
				t.AddRow(
					fmt.Sprintf("%d", classes),
					fmt.Sprintf("%d", rep.PlaintextBytes),
					fmt.Sprintf("%d", rep.CiphertextBytes),
					fmt.Sprintf("%d", rep.CiphertextsEach),
					fmt.Sprintf("%d", rep.TotalUploadBytes),
					rep.EncryptPerClient.String(),
					rep.AggregateTotal.String(),
					rep.DecryptTotal.String(),
				)
			}
			t.Render(opt.Out)
			return nil
		},
	})
}

// fig18 (Appendix D): ten heterogeneous-FL methods on the balanced (IF=1)
// non-IID setting — train accuracy (fig 18, the "train_acc" probe) and test
// accuracy (fig 19).
func init() {
	methodsList := []string{
		"fedavg", "fedcm", "fedprox", "scaffold", "feddyn",
		"fedsam", "mofedsam", "fedspeed", "fedsmoo", "fedlesam",
	}
	register(&Experiment{
		ID:    "fig18",
		Title: "Figures 18-19 (Appendix D): heterogeneous-FL baselines (beta=0.1, IF=1)",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods: methodsList,
				IFs:     []float64{1},
				Probes:  []string{"train_acc"},
				Seeds:   []uint64{opt.Seed},
				Effort:  opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			var rounds []int
			testSeries := make([][]float64, len(methodsList))
			trainSeries := make([][]float64, len(methodsList))
			for i, m := range methodsList {
				rounds, testSeries[i] = res.CurveOf(sweep.Axes{Method: m})
				_, trainSeries[i] = res.MetricCurveOf(sweep.Axes{Method: m}, "train_acc")
			}
			sweep.SeriesTable("Figure 18 (train accuracy over rounds)", rounds, methodsList, trainSeries).Render(opt.Out)
			fmt.Fprintln(opt.Out)
			sweep.SeriesTable("Figure 19 (test accuracy over rounds)", rounds, methodsList, testSeries).Render(opt.Out)
			return nil
		},
	})
}
