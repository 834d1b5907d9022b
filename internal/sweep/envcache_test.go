package sweep

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
)

// envSpec is a tiny but real spec for cache tests.
func envSpec(method string, seed uint64) RunSpec {
	return RunSpec{
		Dataset: "cifar10-syn",
		Method:  method,
		Beta:    0.3,
		IF:      0.2,
		Clients: 5,
		Model:   "linear",
		Scale:   0.08,
		Cfg: fl.Config{
			Rounds: 2, SampleClients: 3, LocalEpochs: 1, BatchSize: 16,
			EtaL: 0.05, EtaG: 1, Seed: seed, EvalEvery: 2, Workers: 1,
		},
	}
}

func TestEnvKeyIgnoresNonEnvAxes(t *testing.T) {
	key := func(s RunSpec) envKey { return s.Defaults().envKey() }
	a := envSpec("fedavg", 1)
	b := envSpec("fedwcm", 1) // different method, rates, model — same world
	b.Model = "mlp"
	b.Cfg.Rounds = 9
	b.Cfg.EtaL = 0.2
	b.Probes = []string{"collapse"}
	if key(a) != key(b) {
		t.Fatal("method/model/config/probe axes must not change the env key")
	}
	// Every env-determining field moves the key, the defaulted spelling of a
	// field does not.
	for name, mut := range map[string]func(*RunSpec){
		"seed":      func(s *RunSpec) { s.Cfg.Seed = 2 },
		"beta":      func(s *RunSpec) { s.Beta = 0.7 },
		"if":        func(s *RunSpec) { s.IF = 0.5 },
		"dataset":   func(s *RunSpec) { s.Dataset = "svhn-syn" },
		"partition": func(s *RunSpec) { s.Partition = "fedgrab" },
		"clients":   func(s *RunSpec) { s.Clients = 6 },
		"scale":     func(s *RunSpec) { s.Scale = 0.09 },
	} {
		d := envSpec("fedavg", 1)
		mut(&d)
		if key(a) == key(d) {
			t.Errorf("%s must change the env key", name)
		}
	}
	spelled, implicit := envSpec("fedavg", 1), envSpec("fedavg", 1)
	spelled.Partition, implicit.Partition = "equal", ""
	if key(spelled) != key(implicit) {
		t.Fatal("a defaulted field must key like its spelled-out default")
	}
}

func TestEnvCacheSharesConstruction(t *testing.T) {
	c := NewEnvCache(4)
	e1, err := envSpec("fedavg", 1).BuildEnvCached(c)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := envSpec("fedwcm", 1).BuildEnvCached(c)
	if err != nil {
		t.Fatal(err)
	}
	if e1.Train != e2.Train || e1.Test != e2.Test {
		t.Fatal("same env fingerprint must share dataset construction")
	}
	if e1 == e2 {
		t.Fatal("the Env wrapper itself must be fresh per build (probes, clients and loss are per-run state)")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("want 1 miss / 1 hit / 1 entry, got %+v", st)
	}
}

func TestEnvCacheMatchesUncachedHistories(t *testing.T) {
	c := NewEnvCache(2)
	spec := envSpec("fedcm", 3)
	cached, err := spec.RunCtx(context.Background(), c, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	if historyHash(t, cached) != historyHash(t, plain) {
		t.Fatal("cached-env run must be bit-identical to the uncached run")
	}
}

func TestEnvCacheLRUEviction(t *testing.T) {
	c := NewEnvCache(2)
	for seed := uint64(1); seed <= 3; seed++ {
		if _, err := envSpec("fedavg", seed).BuildEnvCached(c); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("want 3 misses / 1 eviction / 2 entries, got %+v", st)
	}
	// Seed 1 was evicted (LRU): rebuilding it is a miss, not a hit.
	if _, err := envSpec("fedavg", 1).BuildEnvCached(c); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("evicted env must rebuild, got %+v", st)
	}
}

func TestEnvCacheDoesNotCacheErrors(t *testing.T) {
	c := NewEnvCache(2)
	bad := envSpec("fedavg", 1)
	bad.Partition = "no-such-partition" // passes ModelFor, fails buildPieces
	for i := 0; i < 2; i++ {
		if _, err := bad.BuildEnvCached(c); err == nil ||
			!strings.Contains(err.Error(), "unknown partition") {
			t.Fatalf("want unknown-partition error, got %v", err)
		}
	}
	st := c.Stats()
	if st.Misses != 2 || st.Entries != 0 {
		t.Fatalf("failed builds must not be cached: %+v", st)
	}
}

// TestEngineSweepBuildsEnvOnce is the acceptance check for the environment
// cache: a grid over one dataset — methods × epochs, one seed — performs
// exactly one dataset+partition construction, however many cells expand.
func TestEngineSweepBuildsEnvOnce(t *testing.T) {
	sp := Spec{
		Datasets:    []string{"cifar10-syn"},
		Methods:     []string{"fedavg", "fedcm", "fedprox"},
		LocalEpochs: []int{1, 2},
		Rounds:      8,
		Effort:      0.1,
	}
	cells, err := sp.ExpandValidated()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 6 {
		t.Fatalf("want 6 cells, got %d", len(cells))
	}
	envs := NewEnvCache(4)
	eng := localEngine(t, nil, 4, DispatchRunner(envs))
	if _, err := eng.RunSweep(sp); err != nil {
		t.Fatal(err)
	}
	st := envs.Stats()
	if st.Misses != 1 {
		t.Fatalf("6-cell grid over one dataset must build its env exactly once, got %+v", st)
	}
	if st.Hits != uint64(len(cells)-1) {
		t.Fatalf("want %d env-cache hits, got %+v", len(cells)-1, st)
	}
}

// sameDataset reports whether a and b hold the same samples, bit for bit.
func sameDataset(a, b *data.Dataset) bool {
	if a.Classes != b.Classes || a.X.R != b.X.R || a.X.C != b.X.C || !slices.Equal(a.Y, b.Y) {
		return false
	}
	for i, v := range a.X.Data {
		if math.Float64bits(v) != math.Float64bits(b.X.Data[i]) {
			return false
		}
	}
	return true
}

// TestEnvCacheSharesDatasetsBetweenSiblings: environments that differ only
// in how they partition (β, partition, clients) share both splits; ones that
// differ in IF share the test split only; seed, scale and dataset share
// nothing. Every borrowed split equals a fresh synthesis element for element.
func TestEnvCacheSharesDatasetsBetweenSiblings(t *testing.T) {
	c := NewEnvCache(0)
	build := func(mut func(*RunSpec)) (cached, fresh *fl.Env) {
		t.Helper()
		s := envSpec("fedavg", 1)
		mut(&s)
		cached, err := s.BuildEnvCached(c)
		if err != nil {
			t.Fatal(err)
		}
		if fresh, err = s.BuildEnv(); err != nil {
			t.Fatal(err)
		}
		if !sameDataset(cached.Train, fresh.Train) || !sameDataset(cached.Test, fresh.Test) {
			t.Fatal("a cached split differs from a fresh synthesis")
		}
		return cached, fresh
	}
	base, _ := build(func(*RunSpec) {})
	for name, mut := range map[string]func(*RunSpec){
		"beta":      func(s *RunSpec) { s.Beta = 0.7 },
		"partition": func(s *RunSpec) { s.Partition = "fedgrab" },
		"clients":   func(s *RunSpec) { s.Clients = 6 },
	} {
		if env, _ := build(mut); env.Train != base.Train || env.Test != base.Test {
			t.Errorf("%s: siblings must share both splits", name)
		}
	}
	if env, fresh := build(func(s *RunSpec) { s.IF = 0.5 }); env.Test != base.Test || env.Train == base.Train {
		t.Error("if: siblings must share the test split and only it")
	} else if sameDataset(fresh.Train, base.Train) {
		t.Error("if: a different IF must synthesize a different train split")
	}
	for name, mut := range map[string]func(*RunSpec){
		"seed":    func(s *RunSpec) { s.Cfg.Seed = 2 },
		"scale":   func(s *RunSpec) { s.Scale = 0.09 },
		"dataset": func(s *RunSpec) { s.Dataset = "svhn-syn" },
	} {
		if env, _ := build(mut); env.Train == base.Train || env.Test == base.Test {
			t.Errorf("%s: environments must share no split", name)
		}
	}
	if st := c.Stats(); st.Misses != 8 || st.Hits != 0 {
		t.Fatalf("want 8 misses (one partition build per environment), got %+v", st)
	}
}

// TestEnvCacheDoesNotBorrowFromFailedSibling: a miss that finds a sibling
// still in flight waits for it, and when that build fails it synthesizes
// the splits itself instead of taking whatever the failed entry holds.
func TestEnvCacheDoesNotBorrowFromFailedSibling(t *testing.T) {
	c := NewEnvCache(0)
	spec := envSpec("fedavg", 1)
	sib := spec.Defaults()
	sib.Beta = 0.7
	failed := &envEntry{key: sib.envKey(), ready: make(chan struct{})}
	c.mu.Lock()
	failed.elem = c.order.PushFront(failed)
	c.entries[failed.key] = failed
	c.mu.Unlock()

	type built struct {
		env *fl.Env
		err error
	}
	done := make(chan built)
	go func() {
		env, err := spec.BuildEnvCached(c)
		done <- built{env, err}
	}()
	// The miss has scanned for siblings once its own entry is in the map.
	for c.Stats().Entries < 2 {
		time.Sleep(time.Millisecond)
	}
	decoy := &data.Dataset{}
	failed.pieces, failed.err = envPieces{train: decoy, test: decoy}, errors.New("sibling build failed")
	close(failed.ready)
	c.remove(failed)

	got := <-done
	if got.err != nil {
		t.Fatal(got.err)
	}
	if got.env.Train == decoy || got.env.Test == decoy {
		t.Fatal("borrowed a split from a sibling whose build failed")
	}
	fresh, err := spec.BuildEnv()
	if err != nil {
		t.Fatal(err)
	}
	if !sameDataset(got.env.Train, fresh.Train) || !sameDataset(got.env.Test, fresh.Test) {
		t.Fatal("the splits synthesized after a failed sibling differ from a fresh synthesis")
	}
}

// TestTableGridSynthesizesEachDatasetOnce: the paper's Table 4 grid — 3
// methods × 2 β × 6 IF, 12 environments — driven through a 2-worker engine
// builds its environments from 6 train splits (one per IF) and 1 test split,
// lap after lap, whatever order the workers take the cells in. The cache
// holds the grid's 12 environments: Drive releases misses grouped by
// environment, but its feeders race to Submit, so the order cells execute
// in is not the release order, and at the default cap of 8 an environment
// that runs 8 environments after its sibling synthesizes the train split
// again (7–9 train splits in 1–3 % of laps, measured with this runner).
func TestTableGridSynthesizesEachDatasetOnce(t *testing.T) {
	sp := Spec{Methods: []string{"fedavg", "fedcm", "fedwcm"}, Betas: []float64{0.1, 0.6},
		IFs: []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01}, Effort: 0.05}
	for lap := 0; lap < 10; lap++ {
		envs := NewEnvCache(12)
		var mu sync.Mutex
		trains, tests := map[*data.Dataset]bool{}, map[*data.Dataset]bool{}
		var execs atomic.Int64
		canned := cannedRunner(&execs)
		eng := localEngine(t, nil, 2, specRun(func(ctx context.Context, spec RunSpec, onRound func(fl.RoundStat)) (*fl.History, error) {
			env, err := spec.BuildEnvCached(envs)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			trains[env.Train], tests[env.Test] = true, true
			mu.Unlock()
			return canned(ctx, spec, onRound)
		}).runner())
		res, err := eng.RunSweep(sp)
		eng.Executor.Close()
		if err != nil {
			t.Fatal(err)
		}
		if res.Computed != 36 {
			t.Fatalf("lap %d: %d cells computed, want 36", lap, res.Computed)
		}
		if len(trains) != 6 || len(tests) != 1 {
			t.Fatalf("lap %d: %d train and %d test splits, want 6 and 1", lap, len(trains), len(tests))
		}
		if st := envs.Stats(); st.Misses != 12 {
			t.Fatalf("lap %d: %d environment builds, want 12", lap, st.Misses)
		}
	}
}
