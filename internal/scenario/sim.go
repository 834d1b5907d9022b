package scenario

import "fedwcm/internal/xrand"

// Sim evaluates a Scenario deterministically over a run. The engine drives
// it single-threaded from the round loop: BeginRound advances the
// availability state, then Available / WorkFraction / Stage answer queries
// for that round. Every random decision draws from a stream derived solely
// from (seed, round[, client]), so answers are independent of scheduling,
// worker counts and query order — the property the scenario golden-history
// tests pin.
type Sim struct {
	sc      *Scenario
	seed    uint64
	clients int
	rounds  int
	stages  int // effective drift stage count: min(Drift.Stages, rounds)

	up     []bool // churn state, advanced once per round in client-ID order
	outage []bool // this-round correlated-outage overlay
	round  int    // last BeginRound argument, for misuse checks in tests
}

// NewSim builds the evaluator for sc (which it normalizes) over a
// population of `clients` and `rounds` total rounds. Drift stage counts
// clamp to the round count: the contract that the final stage reaches the
// drift targets holds even for runs shorter than the configured stages.
func NewSim(sc *Scenario, seed uint64, clients, rounds int) *Sim {
	s := &Sim{sc: sc.Normalized(), seed: seed, clients: clients, rounds: rounds}
	if s.HasDrift() {
		s.stages = s.sc.Drift.Stages
		if rounds > 0 && s.stages > rounds {
			s.stages = rounds
		}
	}
	s.up = make([]bool, clients)
	for i := range s.up {
		s.up[i] = true // everyone starts available
	}
	s.outage = make([]bool, clients)
	return s
}

// HasAvailability reports whether the scenario carries an availability
// model (which replaces the engine's flat DropProb coin-flip).
func (s *Sim) HasAvailability() bool { return s.sc != nil && s.sc.Availability != nil }

// HasStraggler reports whether the scenario carries a partial-work model.
func (s *Sim) HasStraggler() bool { return s.sc != nil && s.sc.Straggler != nil }

// HasDrift reports whether the scenario carries label-distribution drift.
func (s *Sim) HasDrift() bool { return s.sc != nil && s.sc.Drift != nil }

// BeginRound advances the availability state to `round`. One Float64 is
// drawn per client regardless of its state, so the stream layout — and
// therefore every client's trajectory — is fixed by (seed, round) alone.
func (s *Sim) BeginRound(round int) {
	s.round = round
	if !s.HasAvailability() {
		return
	}
	a := s.sc.Availability
	rng := xrand.New(xrand.DeriveSeed(s.seed, uint64(round), tagChurn))
	for i := range s.up {
		u := rng.Float64()
		if s.up[i] {
			if u < a.DownProb {
				s.up[i] = false
			}
		} else if u < a.UpProb {
			s.up[i] = true
		}
	}
	for i := range s.outage {
		s.outage[i] = false
	}
	if a.OutageProb > 0 && a.OutageFrac > 0 {
		orng := xrand.New(xrand.DeriveSeed(s.seed, uint64(round), tagOutage))
		if orng.Float64() < a.OutageProb {
			k := int(float64(a.OutageFrac*float64(s.clients)) + 0.5)
			if k > s.clients {
				k = s.clients
			}
			for _, id := range orng.SampleWithoutReplacement(s.clients, k) {
				s.outage[id] = true
			}
		}
	}
}

// Available reports whether client id can participate in the round last
// begun: its churn chain is up and no correlated outage covers it.
func (s *Sim) Available(id int) bool {
	if !s.HasAvailability() {
		return true
	}
	return s.up[id] && !s.outage[id]
}

// WorkFraction returns the fraction of its local step budget client id
// completes in `round` — 1 for non-stragglers. Pure in (seed, round, id).
func (s *Sim) WorkFraction(round, id int) float64 {
	if !s.HasStraggler() {
		return 1
	}
	st := s.sc.Straggler
	rng := xrand.New(xrand.DeriveSeed(s.seed, uint64(round), uint64(id), tagStraggle))
	if rng.Float64() >= st.Prob {
		return 1
	}
	return st.MinFrac + float64((st.MaxFrac-st.MinFrac)*rng.Float64())
}

// Stage returns the drift stage for `round`: 0..stages-1, constant 0
// without drift (or when the run is too short for more than one stage).
// Stage boundaries divide the run evenly; stage 0 is the base environment.
func (s *Sim) Stage(round int) int {
	if s.stages <= 1 || s.rounds <= 0 {
		return 0
	}
	st := round * s.stages / s.rounds
	if st < 0 {
		st = 0
	}
	if st >= s.stages {
		st = s.stages - 1
	}
	return st
}

// StageParams returns the (β, IF) pair for a drift stage given the base
// values: geometric interpolation reaching the targets exactly at the final
// stage. Unset targets keep the base value.
func (s *Sim) StageParams(stage int, baseBeta, baseIF float64) (beta, ifac float64) {
	beta, ifac = baseBeta, baseIF
	if !s.HasDrift() || s.stages <= 1 {
		return beta, ifac
	}
	d := s.sc.Drift
	t := float64(stage) / float64(s.stages-1)
	return Lerp(baseBeta, d.ToBeta, t), Lerp(baseIF, d.ToIF, t)
}
