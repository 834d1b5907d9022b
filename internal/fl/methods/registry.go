package methods

import (
	"fmt"
	"sort"

	"fedwcm/internal/fl"
	"fedwcm/internal/loss"
)

// factories maps method names to constructors with the hyperparameters used
// throughout the evaluation (α = 0.1 as in the paper; SAM ρ and proximal μ
// set to the usual literature defaults). The averaging rows are the plain
// baselines and the client-momentum rows: a fixed set of local options, a
// choice of weights, and optionally FedCM's α, FedDyn's client correction or
// a per-client loss. fedavgm, fedgrab and scaffold embed averaging, and
// fedlesam and the fedwcm rows serverMomentum.
var factories = map[string]func() fl.Method{
	"fedavg":  func() fl.Method { return &averaging{name: "fedavg"} },
	"fedavgm": func() fl.Method { return NewFedAvgM(0.9) },
	"fedcm":   func() fl.Method { return NewFedCM(0.1) },
	"fedcm+focal": func() fl.Method {
		return &fedcm{averaging{name: "fedcm+focal", alpha: 0.1, uniform: true,
			lossFor: func(*fl.Client) loss.Loss { return loss.Focal{Gamma: 2} }}}
	},
	"fedcm+balanceloss": func() fl.Method {
		return &fedcm{averaging{name: "fedcm+balanceloss", alpha: 0.1, uniform: true, lossFor: priorCE(1)}}
	},
	"fedcm+balancesampler": func() fl.Method {
		return &fedcm{averaging{name: "fedcm+balancesampler", alpha: 0.1, uniform: true,
			opts: fl.LocalOpts{Balanced: true}}}
	},
	"fedwcm": func() fl.Method { return NewFedWCM(DefaultWCMOptions()) },
	"fedwcm-x": func() fl.Method {
		opt := DefaultWCMOptions()
		opt.quantityWeighted = true
		return NewFedWCM(opt)
	},
	"fedwcm-absscore": func() fl.Method {
		opt := DefaultWCMOptions()
		opt.score = ScoreAbsDeviation
		return NewFedWCM(opt)
	},
	"fedwcm-weightonly": func() fl.Method {
		opt := DefaultWCMOptions()
		opt.disableAdaptiveAlpha = true
		return NewFedWCM(opt)
	},
	"fedwcm-alphaonly": func() fl.Method {
		opt := DefaultWCMOptions()
		opt.disableWeighting = true
		return NewFedWCM(opt)
	},
	"fedprox": func() fl.Method {
		return &averaging{name: "fedprox", opts: fl.LocalOpts{ProxMu: 0.01}}
	},
	"scaffold": func() fl.Method { return &scaffold{averaging: averaging{name: "scaffold", uniform: true}} },
	"feddyn": func() fl.Method {
		return &averaging{name: "feddyn", opts: fl.LocalOpts{ProxMu: 0.01}, uniform: true, dyn: true}
	},
	"balancefl": func() fl.Method {
		return &averaging{name: "balancefl", opts: fl.LocalOpts{Balanced: true}, lossFor: priorCE(0.5)}
	},
	"fedgrab": func() fl.Method { return &fedgrab{averaging: averaging{name: "fedgrab"}, rho: 0.5} },
	"fedsam":  func() fl.Method { return &averaging{name: "fedsam", opts: fl.LocalOpts{SAMRho: 0.05}} },
	"mofedsam": func() fl.Method {
		return &averaging{name: "mofedsam", alpha: 0.1, opts: fl.LocalOpts{SAMRho: 0.05}, uniform: true}
	},
	"fedlesam": func() fl.Method { return &fedlesam{rho: 0.05} },
	"fedsmoo": func() fl.Method {
		return &averaging{name: "fedsmoo", opts: fl.LocalOpts{SAMRho: 0.05, ProxMu: 0.01}, uniform: true, dyn: true}
	},
	"fedspeed": func() fl.Method {
		return &averaging{name: "fedspeed", opts: fl.LocalOpts{SAMRho: 0.05, ProxMu: 0.01}}
	},
}

// New constructs a method by registry name.
func New(name string) (fl.Method, error) {
	if err := Known(name); err != nil {
		return nil, err
	}
	return factories[name](), nil
}

// Known returns New's error for an unregistered name, and nil otherwise,
// without building the method.
func Known(name string) error {
	if _, ok := factories[name]; !ok {
		return fmt.Errorf("methods: unknown method %q (known: %v)", name, Names())
	}
	return nil
}

// Names lists registered method names, sorted.
func Names() []string {
	out := make([]string, 0, len(factories))
	for n := range factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
