package experiments

import (
	"fmt"

	"fedwcm/internal/sweep"
)

// The async experiment's axes: both momentum methods, the environments where
// wall-clock matters (static as control, stragglers and hostile as the
// regimes where a barrier round ends with part of its work undone), and the
// two execution modes. The async axis turns the virtual clock on for every cell,
// so sync and async report accuracy against the same time base.
var (
	asyncMethods   = []string{"fedcm", "fedwcm"}
	asyncScenarios = []string{"static", "stragglers", "hostile"}
	asyncModes     = []string{"sync", "async"}
)

// asyncTargetFrac sets the time-to-accuracy threshold per (method, scenario)
// pair: the target is this fraction of the *sync* group's final accuracy, so
// the comparison asks "how long does each mode take to reach most of what
// sync eventually achieves" instead of hard-coding a dataset-specific
// accuracy that effort scaling would invalidate.
const asyncTargetFrac = 0.9

// async: buffered asynchronous aggregation vs the synchronous barrier under
// time-varying environments — the FedBuff-style comparison. For each
// (method, scenario) the table reports final accuracy of both modes, the
// virtual wall-clock each needs to reach 90% of the sync final, and the
// resulting speedup. A sync round costs exactly one deadline whatever its
// stragglers do — they report the partial work they got through — so under
// stragglers/hostile it aggregates truncated updates once per time unit,
// while the async engine lets slow clients finish their full budget late
// (1/WorkFraction units) and keeps committing fresh buffers in between
// (K = half the cohort: about two versions per unit); async reaches the
// target earlier on the shared clock at comparable accuracy.
func init() {
	register(&Experiment{
		ID:    "async",
		Title: "Async aggregation: buffered async vs synchronous barrier, wall-clock to target accuracy",
		Sweep: func(opt Options) sweep.Spec {
			return sweep.Spec{
				Datasets:  []string{"cifar10-syn"},
				Methods:   asyncMethods,
				Scenarios: asyncScenarios,
				Async:     asyncModes,
				Seeds:     []uint64{opt.Seed},
				Effort:    opt.Effort,
			}
		},
		Render: func(opt Options, res *sweep.Result) error {
			t := &sweep.Table{
				Title: fmt.Sprintf("Async vs sync: final accuracy and virtual time to %.0f%% of sync final (cifar10-syn)",
					asyncTargetFrac*100),
				Headers: []string{"method", "scenario", "sync final", "async final", "sync t@target", "async t@target", "speedup"},
			}
			for _, m := range asyncMethods {
				for _, sc := range asyncScenarios {
					syncG := res.Find(sweep.Axes{Method: m, Scenario: sc, Async: "sync"})
					asyncG := res.Find(sweep.Axes{Method: m, Scenario: sc, Async: "async"})
					row := []string{m, sc}
					if syncG == nil || asyncG == nil {
						t.AddRow(append(row, "-", "-", "-", "-", "-")...)
						continue
					}
					target := syncG.Mean * asyncTargetFrac
					st, at := syncG.TimeToAcc(target), asyncG.TimeToAcc(target)
					row = append(row, syncG.MeanStd(), asyncG.MeanStd(), timeCell(st), timeCell(at))
					if st > 0 && at > 0 {
						row = append(row, fmt.Sprintf("%.2fx", st/at))
					} else {
						row = append(row, "-")
					}
					t.AddRow(row...)
				}
			}
			t.Render(opt.Out)
			return nil
		},
	})
}

// timeCell renders a virtual wall-clock reading, "-" for "never reached".
func timeCell(t float64) string {
	if t < 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f", t)
}
