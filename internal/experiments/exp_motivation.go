package experiments

import (
	"fmt"

	"fedwcm/internal/collapse"
	"fedwcm/internal/fl"
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
// (bottom) across six imbalance factors. Hand-rolled: each cell attaches a
// collapse probe via the Mod hook, which makes the runs
// non-content-addressable (see sweep.ErrNotAddressable) and so unsweepable.
func init() {
	register(&Experiment{
		ID:    "fig4",
		Title: "Figure 4: FedCM neuron concentration and accuracy across six IF settings",
		Run: func(opt Options) error {
			ifs := []float64{1, 0.5, 0.1, 0.06, 0.04, 0.01}
			var cells []cell
			var labels []string
			seriesByKey := map[string]*collapse.Series{}
			for _, f := range ifs {
				f := f
				key := fmt.Sprintf("IF=%g", f)
				labels = append(labels, key)
				spec := sweep.PresetSpec("cifar10-syn", "fedcm", 0.1, f, opt.Seed, opt.Effort)
				spec.Mod = func(env *fl.Env) {
					probe, series := collapse.NewProbe(collapse.ProbeBatch(env.Test, 200))
					env.Probes = append(env.Probes, probe)
					seriesByKey[key] = series
				}
				cells = append(cells, cell{Key: key, Spec: spec})
			}
			hists, err := runCells(cells, opt.CellWorkers)
			if err != nil {
				return err
			}
			var rounds []int
			conc := make([][]float64, len(labels))
			accs := make([][]float64, len(labels))
			for i, l := range labels {
				r, a := hists[l].AccSeries()
				if rounds == nil {
					rounds = r
				}
				accs[i] = a
				conc[i] = seriesByKey[l].Mean
			}
			sweep.SeriesTable("Figure 4 top (FedCM mean neuron concentration)", rounds, labels, conc).Render(opt.Out)
			fmt.Fprintln(opt.Out)
			sweep.SeriesTable("Figure 4 bottom (FedCM test accuracy)", rounds, labels, accs).Render(opt.Out)
			return nil
		},
	})
}

// fig13_17 (Appendix B): mean and per-layer neuron concentration for
// FedAvg / FedCM / FedWCM under balanced and long-tailed settings.
// Hand-rolled for the same reason as fig4: probe Mod hooks.
func init() {
	register(&Experiment{
		ID:    "fig13",
		Title: "Figures 13-17 (Appendix B): neuron concentration for FedAvg/FedCM/FedWCM",
		Run: func(opt Options) error {
			type setting struct {
				name string
				imf  float64
			}
			settings := []setting{{"IF=1", 1}, {"IF=0.1", 0.1}}
			methodsList := []string{"fedavg", "fedcm", "fedwcm"}
			var cells []cell
			seriesByKey := map[string]*collapse.Series{}
			for _, st := range settings {
				for _, m := range methodsList {
					key := m + " " + st.name
					spec := sweep.PresetSpec("cifar10-syn", m, 0.1, st.imf, opt.Seed, opt.Effort)
					spec.Mod = func(env *fl.Env) {
						probe, series := collapse.NewProbe(collapse.ProbeBatch(env.Test, 200))
						env.Probes = append(env.Probes, probe)
						seriesByKey[key] = series
					}
					cells = append(cells, cell{Key: key, Spec: spec})
				}
			}
			if _, err := runCells(cells, opt.CellWorkers); err != nil {
				return err
			}
			for _, st := range settings {
				labels := make([]string, len(methodsList))
				series := make([][]float64, len(methodsList))
				var rounds []int
				for i, m := range methodsList {
					key := m + " " + st.name
					s := seriesByKey[key]
					labels[i] = m
					series[i] = s.Mean
					rounds = s.Rounds
				}
				sweep.SeriesTable(fmt.Sprintf("Figure 13 (%s): mean neuron concentration", st.name),
					rounds, labels, series).Render(opt.Out)
				fmt.Fprintln(opt.Out)
			}
			// Per-layer detail (figures 14-16): final snapshot per method.
			detail := &sweep.Table{
				Title:   "Figures 14-16: final per-layer concentration (long-tailed setting IF=0.1)",
				Headers: []string{"method", "layer", "concentration"},
			}
			for _, m := range methodsList {
				s := seriesByKey[m+" IF=0.1"]
				if len(s.PerLayer) == 0 {
					continue
				}
				last := s.PerLayer[len(s.PerLayer)-1]
				for li, v := range last {
					detail.AddRow(m, fmt.Sprintf("act%d", li+1), sweep.F(v))
				}
			}
			detail.Render(opt.Out)
			return nil
		},
	})
}
