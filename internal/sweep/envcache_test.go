package sweep

import (
	"context"
	"strings"
	"testing"

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
	eng := &Engine{Workers: 4, Envs: envs}
	if _, err := eng.RunSweep(sp, nil); err != nil {
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
