package fl

import (
	"sync"
	"testing"
)

// FreshKitPools gives the rest of the test an empty worker-kit pool — no
// kit an earlier run left behind can be taken — and restores the shared
// pool when the test ends.
func FreshKitPools(t testing.TB) {
	old := kitPools
	kitPools = new(sync.Map)
	t.Cleanup(func() { kitPools = old })
}

// SetRunMetrics makes env's run report to m instead of the process default.
func SetRunMetrics(env *Env, m *RunMetrics) { env.metrics = m }
