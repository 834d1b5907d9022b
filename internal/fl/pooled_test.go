package fl_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fedwcm/internal/collapse"
	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/partition"
	"fedwcm/internal/xrand"
)

// kitModels are the architectures the contamination test rotates through:
// every one takes 36 features and 4 classes, so they share datasets and
// differ only in what a kit holds (a tiny ResNetLite reads the features as
// one 6×6 channel).
var kitModels = []struct {
	name  string
	build nn.Builder
}{
	{"softmax", nn.SoftmaxBuilder(36, 4)},
	{"mlp", nn.MLPBuilder(36, []int{12}, 4, false)},
	{"mlpbn", nn.MLPBuilder(36, []int{12, 8}, 4, true)},
	{"resnetlite", nn.ResNetLiteBuilder(1, 6, 6, 4, 2)},
}

// kitRun describes one small run: the world (seed, β, IF), the model and
// how it is scheduled.
type kitRun struct {
	method  string
	model   int // index into kitModels
	seed    uint64
	beta    float64
	imf     float64
	batch   int
	test    int // test rows per class
	workers int
	async   bool
	probe   bool
}

// env builds the run's world, counting how many networks it builds. It
// names its architecture as sweep.RunSpec.BuildEnvCached does, so a run
// takes its initial weights from worker 0's kit.
func (r kitRun) env(builds *int) *fl.Env {
	spec := data.GaussianSpec{Classes: 4, Dim: 36, Sep: 3, Noise: 1, SubModes: 1}
	train := spec.Generate(r.seed, 1, data.LongTailCounts(60, 4, r.imf))
	test := spec.Generate(r.seed, 2, data.UniformCounts(r.test, 4))
	part := partition.EqualQuantity(xrand.New(r.seed+7), train, 6, r.beta)
	cfg := fl.Config{Rounds: 4, SampleClients: 3, LocalEpochs: 1, BatchSize: r.batch,
		EtaL: 0.05, EtaG: 1, Seed: r.seed, EvalEvery: 2, Workers: r.workers}
	if r.async {
		cfg.Async = &fl.AsyncConfig{K: 2}
		cfg.Clock = true
	}
	build := kitModels[r.model].build
	env := fl.NewEnv(cfg, train, test, part, func(seed uint64) *nn.Network {
		*builds++
		return build(seed)
	}, loss.CrossEntropy{})
	env.Arch = build(0).Arch()
	env.Metrics = fl.NewRunMetrics(nil)
	if r.probe {
		env.Probes = []fl.Probe{collapse.Probe(collapse.ProbeBatch(test, 12))}
	}
	return env
}

// history runs r and returns its history's JSON and the networks it built.
func (r kitRun) history(t *testing.T) ([]byte, int) {
	t.Helper()
	builds := 0
	m, err := methods.New(r.method)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fl.Run(r.env(&builds), m))
	if err != nil {
		t.Fatal(err)
	}
	return b, builds
}

// TestPooledKitsDoNotLeakAcrossRuns is the contamination check for worker
// kits outliving their run: B run right after other runs, sharing their
// kit pool, must produce the history B produces on an empty pool, byte for
// byte. Every registered method is a B once, rotating over the four model
// kinds, sync and async, and 1 and 4 workers. Before B run two others: one of
// B's architecture (a different method and world, a larger batch and test
// set, so every kit buffer it leaves is stale and larger than B's), then
// one of a different architecture.
func TestPooledKitsDoNotLeakAcrossRuns(t *testing.T) {
	names := methods.Names()
	reused := 0
	for i, name := range names {
		b := kitRun{method: name, model: i % 4, seed: uint64(11 + i), beta: 0.3, imf: 0.2,
			batch: 8, test: 10, workers: []int{1, 4}[i/8%2], async: i/4%2 == 1, probe: i%3 == 0}
		sameArch := kitRun{method: names[(i+1)%len(names)], model: b.model, seed: b.seed + 100,
			beta: 0.8, imf: 0.05, batch: 16, test: 25, workers: 4, async: !b.async, probe: true}
		otherArch := sameArch
		otherArch.model = (b.model + 1) % 4
		label := fmt.Sprintf("%s/%s/async=%v/workers=%d", name, kitModels[b.model].name, b.async, b.workers)
		t.Run(label, func(t *testing.T) {
			fl.FreshKitPools(t)
			want, freshBuilds := b.history(t)

			fl.FreshKitPools(t)
			sameArch.history(t)
			otherArch.history(t)
			got, builds := b.history(t)
			if !bytes.Equal(got, want) {
				t.Fatalf("B after pooled runs differs from B on an empty pool:\n got %s\nwant %s", got, want)
			}
			if builds < freshBuilds {
				reused++
			}
		})
	}
	// Every B takes kits its same-architecture predecessor left: that run
	// had four workers, and B has at most four.
	if reused != len(names) {
		t.Fatalf("only %d of %d B runs reused a pooled kit", reused, len(names))
	}
}

// TestPooledKitsSharedByConcurrentRuns: runs executing at once (a sweep's
// pool slots) take and return kits of one pool concurrently, two
// architectures interleaved, and each still computes its empty-pool
// history. Under -race this is the check that a kit changes hands only
// through the pool.
func TestPooledKitsSharedByConcurrentRuns(t *testing.T) {
	fl.FreshKitPools(t)
	runs := make([]kitRun, 8)
	want := make([][]byte, len(runs))
	for i := range runs {
		runs[i] = kitRun{method: []string{"fedavg", "fedcm", "fedwcm", "scaffold"}[i%4], model: 1 + i%2,
			seed: uint64(40 + i), beta: 0.3, imf: 0.2, batch: 8 + 4*(i%3), test: 10, workers: 2, async: i%3 == 0}
		want[i], _ = runs[i].history(t)
	}
	var wg sync.WaitGroup
	for i := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for lap := 0; lap < 3; lap++ {
				builds := 0
				m, _ := methods.New(runs[i].method)
				got, err := json.Marshal(fl.Run(runs[i].env(&builds), m))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("run %d lap %d: history differs from its empty-pool run", i, lap)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// repeatEnv is a Table 4 cell's shape — 48-feature BatchNorm MLP, 10
// classes, batch 50 — on the given number of workers, whose network
// constructor counts the networks it makes. Like a sweep cell's Env it
// names its architecture, so a run on a warm kit pool builds nothing.
func repeatEnv(builds *int, workers int) *fl.Env {
	spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
	train := spec.Generate(5, 1, data.LongTailCounts(200, 10, 0.1))
	test := spec.Generate(5, 2, data.UniformCounts(60, 10))
	part := partition.EqualQuantity(xrand.New(6), train, 20, 0.1)
	cfg := fl.Config{Rounds: 8, SampleClients: 4, LocalEpochs: 2, BatchSize: 50,
		EtaL: 0.1, EtaG: 1, Seed: 5, EvalEvery: 4, Workers: workers}
	build := nn.MLPBuilder(48, []int{64, 32}, 10, true)
	env := fl.NewEnv(cfg, train, test, part, func(seed uint64) *nn.Network {
		*builds++
		return build(seed)
	}, loss.CrossEntropy{})
	env.Arch = build(0).Arch()
	env.Metrics = fl.NewRunMetrics(nil)
	return env
}

// repeatRun runs env twice, calling between after the first run, and
// returns the bytes each run allocated.
func repeatRun(env *fl.Env, between func()) (first, second uint64) {
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	b0 := allocated()
	fl.Run(env, methods.NewFedCM(0.1))
	b1 := allocated()
	between()
	b2 := allocated()
	fl.Run(env, methods.NewFedCM(0.1))
	b3 := allocated()
	return b1 - b0, b3 - b2
}

// raceBytes is why the byte ratios are not asserted under -race: there
// tensor's GEMM panel sync.Pool drops a quarter of its Puts, its refills are
// two thirds of a run's bytes, and a repeat run measured 0.47–0.76× the
// first's bytes with every kit reused.
const raceBytes = "tensor's panel sync.Pool drops Puts under -race: a repeat run measured 0.47–0.76× the first's bytes"

// TestRepeatRunAllocatesAQuarter: a second run of one environment reuses the
// first's worker kits — networks, their workspaces, result slots — and the
// evaluation workspaces and global vector on worker 0's kit, so it builds
// no network and allocates at most a quarter of the bytes the first did.
func TestRepeatRunAllocatesAQuarter(t *testing.T) {
	if raceEnabled {
		t.Skip(raceBytes)
	}
	fl.FreshKitPools(t)
	builds := 0
	var firstBuilds int
	first, second := repeatRun(repeatEnv(&builds, 2), func() { firstBuilds = builds })
	t.Logf("first run %d B, second %d B (%.2f×)", first, second, float64(second)/float64(first))
	if got := builds - firstBuilds; got != 0 {
		t.Fatalf("the second run built %d networks, want 0 (the kits are reused)", got)
	}
	if 4*second > first {
		t.Fatalf("second run allocated %d B, more than a quarter of the first's %d B", second, first)
	}
}

// TestPooledKitsSurviveGC: idle kits stay on their free list through
// garbage collections, so a run after two forced GCs still takes the kit
// the previous run left — it builds no network, not even for its initial
// weights — and allocates at most a quarter of what the first run did. One
// worker: with two, which clients each kit trains (and so how far its
// workspaces grow) follows the scheduler, and at GOMAXPROCS 1 a kit that
// trained no large client in the first run grows in the second (up to
// 0.38× measured).
func TestPooledKitsSurviveGC(t *testing.T) {
	fl.FreshKitPools(t)
	builds := 0
	env := repeatEnv(&builds, 1)
	var firstBuilds int
	first, second := repeatRun(env, func() {
		firstBuilds = builds
		runtime.GC()
		runtime.GC()
	})
	t.Logf("first run %d B and %d networks, after two GCs %d B and %d networks (%.2f×)",
		first, firstBuilds, second, builds-firstBuilds, float64(second)/float64(first))
	if got := builds - firstBuilds; got != 0 {
		t.Fatalf("the run after GC built %d networks, want 0 (the kits are reused)", got)
	}
	if raceEnabled {
		t.Skip(raceBytes)
	}
	if 4*second > first {
		t.Fatalf("the run after GC allocated %d B, more than a quarter of the first's %d B", second, first)
	}
}
