package experiments

import "fedwcm/internal/sweep"

// table1Methods is the paper's Table 1 column set.
var table1Methods = []string{
	"fedavg", "balancefl", "fedcm",
	"fedcm+focal", "fedcm+balanceloss", "fedcm+balancesampler", "fedwcm",
}

var (
	tableIFs   = []float64{1, 0.5, 0.1, 0.05, 0.01}
	tableBetas = []float64{0.6, 0.1}
)

// methodBetaTable places groups as one row per (dataset, IF) with a
// method × β cell each: the layout of Tables 1 and 2.
func methodBetaTable(title string) View {
	return View{Title: title, Rows: []string{"dataset", "IF"}, Cols: []string{"method", "beta"}, Head: "%s b=%g"}
}

// The training experiments. Execute gives each grid the run's one seed and
// effort; everything else a grid leaves out is the dataset preset's.
func init() {
	for _, e := range []*Experiment{
		{
			ID:    "table1",
			Title: "Table 1: performance comparison across datasets, IFs and betas",
			Grid: sweep.Spec{
				Datasets: []string{"fmnist-syn", "svhn-syn", "cifar10-syn", "cifar100-syn", "imagenet-syn"},
				Methods:  table1Methods, IFs: tableIFs, Betas: tableBetas,
			},
			Views: []View{methodBetaTable("Table 1 (mean test accuracy, tail-3 evals)")},
		},
		// The single-dataset slice used for quick comparisons (the paper's
		// prose discusses the CIFAR-10 block of Table 1). Its grid is a
		// strict subset of table1's, so after table1 every cell is a store
		// hit.
		{
			ID:    "table1-cifar10",
			Title: "Table 1 (CIFAR-10 block only)",
			Grid:  sweep.Spec{Datasets: []string{"cifar10-syn"}, Methods: table1Methods, IFs: tableIFs, Betas: tableBetas},
			Views: []View{methodBetaTable("Table 1, cifar10-syn block")},
		},
		{
			ID:    "table2",
			Title: "Table 2: FedAvg / FedGraB / FedWCM on CIFAR-10",
			Grid: sweep.Spec{
				Datasets: []string{"cifar10-syn"}, Methods: []string{"fedavg", "fedgrab", "fedwcm"},
				IFs: tableIFs, Betas: tableBetas,
			},
			Views: []View{methodBetaTable("Table 2 (cifar10-syn)")},
		},
		{
			ID:    "table4",
			Title: "Table 4: FedAvg/FedCM/FedWCM across beta and IF",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm"},
				Betas:   []float64{0.1, 0.6}, IFs: []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01},
			},
			Views: []View{{Title: "Table 4 (beta = %g)", Split: "beta", Rows: []string{"method"}, Cols: []string{"IF"}, Head: "IF=%g"}},
		},
		// The motivation figure: FedCM fails to converge as the tail grows.
		{
			ID:    "fig3",
			Title: "Figure 3: FedAvg vs FedCM across IF settings (beta=0.1)",
			Grid:  sweep.Spec{Methods: []string{"fedavg", "fedcm"}, IFs: []float64{1, 0.1, 0.01}},
			Views: []View{{
				Title: "Figure 3 (test accuracy over rounds, beta=0.1)", Series: "test_acc",
				Cols: []string{"method", "IF"}, Head: "%s IF=%g",
			}},
		},
		{
			ID:    "fig4",
			Title: "Figure 4: FedCM neuron concentration and accuracy across six IF settings",
			Grid: sweep.Spec{
				Methods: []string{"fedcm"}, IFs: []float64{1, 0.5, 0.1, 0.06, 0.04, 0.01},
				Probes: []string{"collapse"},
			},
			Views: []View{
				{Title: "Figure 4 top (FedCM mean neuron concentration)", Series: "concentration", Cols: []string{"IF"}, Head: "IF=%g"},
				{Title: "Figure 4 bottom (FedCM test accuracy)", Series: "test_acc", Cols: []string{"IF"}, Head: "IF=%g"},
			},
		},
		// Its two FedCM cells are fig4's IF=1 and IF=0.1 cells, so either
		// figure run after the other finds them in the store.
		{
			ID:    "fig13",
			Title: "Figures 13-17 (Appendix B): neuron concentration for FedAvg/FedCM/FedWCM",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm"}, IFs: []float64{1, 0.1},
				Probes: []string{"collapse"},
			},
			Views: []View{
				{Title: "Figure 13 (IF=%g): mean neuron concentration", Split: "IF", Series: "concentration", Cols: []string{"method"}},
				{
					Title:  "Figures 14-16: final per-layer concentration (long-tailed setting IF=0.1)",
					Vector: "concentration/act", At: sweep.Axes{IF: 0.1},
					Rows: []string{"method"}, Heads: []string{"method", "layer", "concentration"},
				},
			},
		},
		{
			ID:    "fig7",
			Title: "Figure 7: convergence curves of eight methods (beta=0.6, IF=0.1)",
			Grid: sweep.Spec{
				Methods: []string{
					"fedwcm", "fedavg", "balancefl", "fedgrab",
					"fedcm+balancesampler", "fedcm+focal", "fedcm+balanceloss", "fedcm",
				},
				Betas: []float64{0.6}, IFs: []float64{0.1},
			},
			Views: []View{
				{Title: "Figure 7 (test accuracy over rounds)", Series: "test_acc", Cols: []string{"method"}},
				{Title: "Rounds to reach 60% test accuracy", Rows: []string{"method"}, Stats: []Stat{{Name: "rounds", Head: "round", Arg: 0.6}}},
			},
		},
		{
			ID:    "fig8",
			Title: "Figure 8: per-label accuracy (beta=0.6, IF=0.1)",
			Grid:  sweep.Spec{Methods: []string{"fedavg", "fedcm", "balancefl", "fedwcm"}, Betas: []float64{0.6}, IFs: []float64{0.1}},
			Views: []View{{
				Title:  "Figure 8 (final per-label accuracy; label 0 = head, label 9 = tail)",
				Vector: "per_class", Cols: []string{"method"}, Heads: []string{"label"},
			}},
		},
		{
			ID:    "table3",
			Title: "Table 3: comparison under different client sampling rates",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm"}, Betas: []float64{0.6}, IFs: []float64{0.1},
				SampleRates: []float64{0.05, 0.1, 0.2, 0.4, 0.8},
			},
			Views: []View{{Title: "Table 3 (beta=0.6, IF=0.1)", Rows: []string{"sample"}, Heads: []string{"sampling"}, Cols: []string{"method"}}},
		},
		{
			ID:    "fig9",
			Title: "Figure 9: test accuracy vs number of clients",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm"}, Betas: []float64{0.6}, IFs: []float64{0.1},
				Clients: []int{10, 20, 50, 100}, SampleRates: []float64{0.1},
			},
			Views: []View{{Title: "Figure 9 (beta=0.6, IF=0.1)", Rows: []string{"clients"}, Cols: []string{"method"}}},
		},
		{
			ID:    "fig10",
			Title: "Figure 10: test accuracy vs local epochs",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm"}, Betas: []float64{0.6}, IFs: []float64{0.1},
				LocalEpochs: []int{1, 5, 10, 20},
			},
			Views: []View{{Title: "Figure 10 (beta=0.6, IF=0.1)", Rows: []string{"epochs"}, Cols: []string{"method"}}},
		},
		// Paper-literal Eq. 3 scoring (absolute deviation) versus the
		// intent-preserving scarcity scoring this reproduction defaults to
		// (see DESIGN.md "Interpretation decisions").
		{
			ID:    "abl_score",
			Title: "Ablation: literal |target−p| scoring vs scarcity scoring",
			Grid:  sweep.Spec{Methods: []string{"fedavg", "fedcm", "fedwcm-absscore", "fedwcm"}, IFs: []float64{0.1, 0.05}},
			Views: []View{{Title: "Score-mode ablation (beta=0.1)", Rows: []string{"method"}, Cols: []string{"IF"}, Head: "IF=%g"}},
		},
		// Which of FedWCM's two mechanisms (weighted aggregation, adaptive
		// alpha) carries the long-tail fix.
		{
			ID:    "abl_parts",
			Title: "Ablation: FedWCM mechanism decomposition",
			Grid:  sweep.Spec{Methods: []string{"fedcm", "fedwcm-weightonly", "fedwcm-alphaonly", "fedwcm"}},
			Views: []View{{
				Title: "Mechanism ablation (beta=0.1, IF=0.1)", Rows: []string{"method"}, Heads: []string{"variant"},
				Stats: []Stat{{Name: "final"}, {Name: "best"}, {Name: "tail3"}},
			}},
		},
		// The FedBuff-style comparison. The async axis turns the virtual
		// clock on for every cell, so both modes report accuracy on one time
		// base. The target is 90 % of the *sync* group's accuracy: how long
		// each mode takes to reach most of what sync achieves, without a
		// dataset-specific threshold that effort scaling would invalidate.
		{
			ID:    "async",
			Title: "Async aggregation: buffered async vs synchronous barrier, wall-clock to target accuracy",
			Grid: sweep.Spec{
				Datasets: []string{"cifar10-syn"}, Methods: []string{"fedcm", "fedwcm"},
				Scenarios: []string{"static", "stragglers", "hostile"}, Async: []string{"sync", "async"},
			},
			Views: []View{{
				Title: "Async vs sync: final accuracy and virtual time to 90% of sync final (cifar10-syn)",
				Rows:  []string{"method", "scenario"},
				Stats: []Stat{
					{Name: "tail3", Head: "sync final", At: sweep.Axes{Async: "sync"}},
					{Name: "tail3", Head: "async final", At: sweep.Axes{Async: "async"}},
					{Name: "time", Head: "sync t@target", At: sweep.Axes{Async: "sync"}, Arg: 0.9, Ref: sweep.Axes{Async: "sync"}},
					{Name: "time", Head: "async t@target", At: sweep.Axes{Async: "async"}, Arg: 0.9, Ref: sweep.Axes{Async: "sync"}},
					{Name: "ratio", Head: "speedup"},
				},
			}},
		},
		// The head/medium/tail split, the long-tail reporting convention,
		// shows where momentum re-weighting wins or loses accuracy when the
		// environment moves.
		{
			ID:    "scenarios",
			Title: "Dynamic environments: methods under churn, stragglers and drift (head/medium/tail accuracy)",
			Grid: sweep.Spec{
				Datasets: []string{"cifar10-syn"}, Methods: []string{"fedavg", "fedcm", "fedwcm"},
				Scenarios: []string{"static", "churn", "stragglers", "churn+drift"},
			},
			Views: []View{{
				Title: "Scenarios: mean accuracy and head/medium/tail split (cifar10-syn, default beta/IF)",
				Rows:  []string{"scenario"}, Cols: []string{"method"},
				Stats: []Stat{{Name: "tail3"}, {Name: "shot", Head: "%s h/m/t"}},
			}},
		},
		{
			ID:    "table5",
			Title: "Table 5 (Appendix A): FedGraB partition, FedAvg/FedCM/FedWCM-X",
			Grid: sweep.Spec{
				Methods: []string{"fedavg", "fedcm", "fedwcm-x"}, IFs: []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01},
				Partition: "fedgrab",
			},
			Views: []View{{Title: "Table 5 (beta=0.1, FedGraB partition)", Rows: []string{"method"}, Cols: []string{"IF"}, Head: "IF=%g"}},
		},
		{
			ID:    "fig12",
			Title: "Figure 12 (Appendix A): methods under FedGraB partition (beta=0.1, IF=0.1)",
			Grid: sweep.Spec{
				Methods: []string{
					"fedwcm-x", "fedavg", "balancefl", "fedgrab",
					"fedcm", "fedcm+focal", "fedcm+balancesampler",
				},
				Partition: "fedgrab",
			},
			Views: []View{{Title: "Figure 12 (test accuracy, FedGraB partition)", Series: "test_acc", Cols: []string{"method"}}},
		},
		{
			ID:    "fig18",
			Title: "Figures 18-19 (Appendix D): heterogeneous-FL baselines (beta=0.1, IF=1)",
			Grid: sweep.Spec{
				Methods: []string{
					"fedavg", "fedcm", "fedprox", "scaffold", "feddyn",
					"fedsam", "mofedsam", "fedspeed", "fedsmoo", "fedlesam",
				},
				IFs: []float64{1}, Probes: []string{"train_acc"},
			},
			Views: []View{
				{Title: "Figure 18 (train accuracy over rounds)", Series: "train_acc", Cols: []string{"method"}},
				{Title: "Figure 19 (test accuracy over rounds)", Series: "test_acc", Cols: []string{"method"}},
			},
		},
	} {
		register(e)
	}
}
