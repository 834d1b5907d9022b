package experiments

import (
	"fmt"

	"fedwcm/internal/data"
	"fedwcm/internal/he"
	"fedwcm/internal/partition"
	"fedwcm/internal/sweep"
	"fedwcm/internal/xrand"
)

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
