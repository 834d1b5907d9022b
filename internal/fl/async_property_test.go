package fl

import (
	"container/heap"
	"math"
	"sort"
	"testing"

	"fedwcm/internal/xrand"
)

// asyncInfoCopy deep-copies the fields a hook may not retain (the engine
// recycles the backing slices between aggregation events).
type asyncInfoCopy struct {
	version  int
	partial  bool
	stale    []int
	disc     []float64
	weights  []float64
	hist     []int
	uniform  bool
	mode     string
	staleExp float64
}

// collectAsyncInfos runs a small buffered-async training and captures every
// aggregation event through Env.asyncHook.
func collectAsyncInfos(t *testing.T, ac *AsyncConfig) []asyncInfoCopy {
	t.Helper()
	cfg := Config{Rounds: 10, SampleClients: 6, LocalEpochs: 1, BatchSize: 16,
		EtaL: 0.1, EtaG: 1, Seed: 41, EvalEvery: 5, Workers: 2, DropProb: 0.2,
		Async: ac}
	env := testEnv(41, cfg, 4, 12, 0.3, 0.5)
	norm := env.Cfg.Async // Defaults applied by NewEnv
	var infos []asyncInfoCopy
	env.asyncHook = func(info *AsyncInfo) {
		infos = append(infos, asyncInfoCopy{
			version:  info.Version,
			partial:  info.Partial,
			stale:    append([]int(nil), info.Stale...),
			disc:     append([]float64(nil), info.Discounts...),
			weights:  append([]float64(nil), info.Weights...),
			hist:     append([]int(nil), info.Hist...),
			uniform:  info.Uniform,
			mode:     norm.Staleness,
			staleExp: norm.StaleExp,
		})
	}
	Run(env, &sgdMethod{})
	if len(infos) == 0 {
		t.Fatal("async run produced no aggregation events")
	}
	return infos
}

// TestAsyncWeightsConvexCombination: at every aggregation event the engine's
// staleness weights form a valid convex combination — non-negative, finite,
// summing to 1 — and agree with the configured discount function, with the
// histogram consistent with the per-update staleness.
func TestAsyncWeightsConvexCombination(t *testing.T) {
	for _, ac := range []*AsyncConfig{
		{Staleness: StalePoly, Jitter: 0.3},
		{K: 1, Staleness: StalePoly, StaleExp: 1.5},
		{Staleness: StaleUniform},
	} {
		infos := collectAsyncInfos(t, ac)
		for _, info := range infos {
			n := len(info.weights)
			if n == 0 || len(info.stale) != n || len(info.disc) != n {
				t.Fatalf("v%d: misaligned info slices: %d stale, %d disc, %d weights",
					info.version, len(info.stale), len(info.disc), n)
			}
			sum := 0.0
			for i, w := range info.weights {
				if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
					t.Fatalf("v%d: weight[%d]=%g is not a valid convex coefficient", info.version, i, w)
				}
				sum += w
				want := StalenessDiscount(info.stale[i], info.mode, info.staleExp)
				if info.disc[i] != want {
					t.Fatalf("v%d: discount[%d]=%g, StalenessDiscount(%d)=%g",
						info.version, i, info.disc[i], info.stale[i], want)
				}
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("v%d: weights sum to %g, want 1", info.version, sum)
			}
			histN := 0
			for s, c := range info.hist {
				histN += c
				got := 0
				for _, st := range info.stale {
					if st == s {
						got++
					}
				}
				if got != c {
					t.Fatalf("v%d: hist[%d]=%d but %d updates carry that staleness", info.version, s, c, got)
				}
			}
			if histN != n {
				t.Fatalf("v%d: histogram totals %d over %d updates", info.version, histN, n)
			}
		}
	}
}

// TestAsyncWeightsMonotoneInStaleness: within one aggregation event, a
// staler update never outweighs a fresher one — the staleness-discount
// contract that makes buffered aggregation safe under delay.
func TestAsyncWeightsMonotoneInStaleness(t *testing.T) {
	infos := collectAsyncInfos(t, &AsyncConfig{K: 2, Staleness: StalePoly, Jitter: 0.4})
	sawStale := false
	for _, info := range infos {
		for i := range info.weights {
			for j := range info.weights {
				if info.stale[i] > info.stale[j] {
					sawStale = true
					if info.weights[i] > info.weights[j]+1e-12 {
						t.Fatalf("v%d: stale=%d weighs %g > stale=%d at %g",
							info.version, info.stale[i], info.weights[i], info.stale[j], info.weights[j])
					}
				}
			}
		}
	}
	if !sawStale {
		t.Fatal("fixture never produced mixed staleness; the monotonicity check was vacuous")
	}
}

// TestStalenessDiscountMonotone: d(s) ∈ (0,1], d(0)=1, and d is monotone
// non-increasing in s for every mode/exponent combination.
func TestStalenessDiscountMonotone(t *testing.T) {
	for _, tc := range []struct {
		mode string
		exp  float64
	}{{StalePoly, 0.5}, {StalePoly, 1}, {StalePoly, 8}, {StalePoly, 0}, {StaleUniform, 0}} {
		prev := math.Inf(1)
		for s := 0; s <= 64; s++ {
			d := StalenessDiscount(s, tc.mode, tc.exp)
			if d <= 0 || d > 1 {
				t.Fatalf("%s/exp=%g: d(%d)=%g outside (0,1]", tc.mode, tc.exp, s, d)
			}
			if s == 0 && d != 1 {
				t.Fatalf("%s/exp=%g: d(0)=%g, want exactly 1", tc.mode, tc.exp, d)
			}
			if d > prev {
				t.Fatalf("%s/exp=%g: d(%d)=%g > d(%d)=%g", tc.mode, tc.exp, s, d, s-1, prev)
			}
			prev = d
		}
	}
}

// TestEventQueuePopOrder: under random schedules full of deliberate ties the
// completion heap pops in strict (time, client, seq) order — the total order
// that makes the async engine's event processing deterministic.
func TestEventQueuePopOrder(t *testing.T) {
	rng := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		var q eventQueue
		n := 3 + int(rng.Uint64()%40)
		for i := 0; i < n; i++ {
			heap.Push(&q, &asyncUpdate{
				// Small value sets force time and client collisions so the
				// tiebreakers actually decide.
				t:   float64(rng.Uint64()%4) * 0.5,
				seq: rng.Uint64() % 16,
				res: ClientResult{ClientID: int(rng.Uint64() % 5)},
			})
		}
		var popped []*asyncUpdate
		for q.Len() > 0 {
			popped = append(popped, heap.Pop(&q).(*asyncUpdate))
		}
		if !sort.SliceIsSorted(popped, func(i, j int) bool {
			a, b := popped[i], popped[j]
			if a.t != b.t {
				return a.t < b.t
			}
			if a.res.ClientID != b.res.ClientID {
				return a.res.ClientID < b.res.ClientID
			}
			return a.seq < b.seq
		}) {
			t.Fatalf("trial %d: heap popped out of (time, client, seq) order", trial)
		}
	}
}
