package methods

// Scores exposes the per-client scarcity scores.
func (m *FedWCM) Scores() []float64 { return m.scores }

// Gains exposes the balancer state.
func (m *FedGraB) Gains() []float64 { return m.gains }
