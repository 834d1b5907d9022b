package experiments

import (
	"fmt"

	"fedwcm/internal/sweep"
)

// fig3: FedAvg vs FedCM accuracy curves on cifar10-syn with β=0.1 and
// IF ∈ {1, 0.1, 0.01} — the motivation figure showing FedCM's long-tail
// non-convergence.
func init() {
	methodsList := []string{"fedavg", "fedcm"}
	ifs := []float64{1, 0.1, 0.01}
	register(&Experiment{
		ID:    "fig3",
		Title: "Figure 3: FedAvg vs FedCM across IF settings (beta=0.1)",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods: methodsList,
				IFs:     ifs,
				Seeds:   []uint64{opt.Seed},
				Effort:  opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			var rounds []int
			var labels []string
			var series [][]float64
			for _, m := range methodsList {
				for _, f := range ifs {
					labels = append(labels, fmt.Sprintf("%s IF=%g", m, f))
					r, a := res.CurveOf(sweep.Axes{Method: m, IF: f})
					if rounds == nil {
						rounds = r
					}
					series = append(series, a)
				}
			}
			sweep.SeriesTable("Figure 3 (test accuracy over rounds, beta=0.1)", rounds, labels, series).Render(opt.Out)
			return nil
		},
	})
}

// fig4: FedCM's average neuron concentration (top) and test accuracy
// (bottom) across six imbalance factors; the "collapse" probe records the
// concentration series beside each cell's accuracy.
func init() {
	ifs := []float64{1, 0.5, 0.1, 0.06, 0.04, 0.01}
	register(&Experiment{
		ID:    "fig4",
		Title: "Figure 4: FedCM neuron concentration and accuracy across six IF settings",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods: []string{"fedcm"},
				IFs:     ifs,
				Probes:  []string{"collapse"},
				Seeds:   []uint64{opt.Seed},
				Effort:  opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			var rounds []int
			labels := make([]string, len(ifs))
			conc := make([][]float64, len(ifs))
			accs := make([][]float64, len(ifs))
			for i, f := range ifs {
				labels[i] = fmt.Sprintf("IF=%g", f)
				rounds, accs[i] = res.CurveOf(sweep.Axes{IF: f})
				_, conc[i] = res.MetricCurveOf(sweep.Axes{IF: f}, "concentration")
			}
			sweep.SeriesTable("Figure 4 top (FedCM mean neuron concentration)", rounds, labels, conc).Render(opt.Out)
			fmt.Fprintln(opt.Out)
			sweep.SeriesTable("Figure 4 bottom (FedCM test accuracy)", rounds, labels, accs).Render(opt.Out)
			return nil
		},
	})
}

// fig13_17 (Appendix B): mean and per-layer neuron concentration for
// FedAvg / FedCM / FedWCM under balanced and long-tailed settings. Its two
// FedCM cells are fig4's IF=1 and IF=0.1 cells, so either figure run after
// the other finds them in the store.
func init() {
	ifs := []float64{1, 0.1}
	methodsList := []string{"fedavg", "fedcm", "fedwcm"}
	register(&Experiment{
		ID:    "fig13",
		Title: "Figures 13-17 (Appendix B): neuron concentration for FedAvg/FedCM/FedWCM",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Methods: methodsList,
				IFs:     ifs,
				Probes:  []string{"collapse"},
				Seeds:   []uint64{opt.Seed},
				Effort:  opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			for _, f := range ifs {
				var rounds []int
				series := make([][]float64, len(methodsList))
				for i, m := range methodsList {
					rounds, series[i] = res.MetricCurveOf(sweep.Axes{Method: m, IF: f}, "concentration")
				}
				sweep.SeriesTable(fmt.Sprintf("Figure 13 (IF=%g): mean neuron concentration", f),
					rounds, methodsList, series).Render(opt.Out)
				fmt.Fprintln(opt.Out)
			}
			// Per-layer detail (figures 14-16): final snapshot per method.
			detail := &sweep.Table{
				Title:   "Figures 14-16: final per-layer concentration (long-tailed setting IF=0.1)",
				Headers: []string{"method", "layer", "concentration"},
			}
			for _, m := range methodsList {
				for li := 1; ; li++ {
					layer := fmt.Sprintf("act%d", li)
					_, v := res.MetricCurveOf(sweep.Axes{Method: m, IF: 0.1}, "concentration/"+layer)
					if len(v) == 0 {
						break
					}
					detail.AddRow(m, layer, sweep.F(v[len(v)-1]))
				}
			}
			detail.Render(opt.Out)
			return nil
		},
	})
}
