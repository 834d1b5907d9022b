package main

import (
	"fmt"
	"math/rand"

	"fedwcm/internal/fl"
	"fedwcm/internal/sweep"
	"fedwcm/internal/wire"
)

// sizes fixes how much work a lap does. They are constants, not flags and
// not calibrated at run time: a parent commit and a change must run
// identical work for their numbers to compare. fullSizes is the benchmark;
// smokeSizes keeps every code path alive inside `go test ./bench`.
type sizes struct {
	name string

	tableEffort float64   // table_cold: effort of the Table 4 grid
	tableIFs    []float64 // table_cold: IF axis
	tableBetas  []float64

	cnnEffort float64   // cnn_cold: effort of the ResNetLite grid
	cnnIFs    []float64 // cnn_cold: IF axis

	drainCells  int // ctl_drain: seed_count of the timed sweep
	drainWarmup int // ctl_drain: seed_count of the warm-up sweep

	warmEffort float64 // warm_reads: effort of the pre-filled Table 1 blocks
	warmSweeps int     // warm_reads: distinct sub-grids per lap
	warmWarmup int     // warm_reads: sub-grids in the warm-up
	warmEvals  int     // warm_reads: evaluation points per pre-filled history

	probeScale int // divisor on every probe's iteration count
}

// fullSizes: each lap's timed part is 3–4 s on the 2-core reference host, so
// a 6-lap run with its set-ups stays under 30 s (the driver allows ~37 s a
// run; ISSUE.md's 8 s laps do not fit, see README "Deviations").
var fullSizes = sizes{
	name:        "full",
	tableEffort: 0.18,
	tableIFs:    []float64{1, 0.4, 0.1, 0.06, 0.04, 0.01},
	tableBetas:  []float64{0.1, 0.6},
	cnnEffort:   0.11,
	cnnIFs:      []float64{1, 0.1, 0.01},
	drainCells:  1500,
	drainWarmup: 300,
	warmEffort:  0.1,
	warmSweeps:  4000,
	warmWarmup:  100,
	warmEvals:   20,
	probeScale:  1,
}

var smokeSizes = sizes{
	name:        "smoke",
	tableEffort: 0.08,
	tableIFs:    []float64{1, 0.01},
	tableBetas:  []float64{0.1},
	cnnEffort:   0.08,
	cnnIFs:      []float64{0.1},
	drainCells:  60,
	drainWarmup: 8,
	warmEffort:  0.1,
	warmSweeps:  20,
	warmWarmup:  2,
	warmEvals:   4,
	probeScale:  50,
}

var (
	threeMethods = []string{"fedavg", "fedcm", "fedwcm"}
	// table1Methods, table1IFs, table1Betas: the paper's Table 1 axes
	// (internal/experiments keeps its copy unexported).
	table1Methods = []string{
		"fedavg", "balancefl", "fedcm",
		"fedcm+focal", "fedcm+balanceloss", "fedcm+balancesampler", "fedwcm",
	}
	table1IFs      = []float64{1, 0.5, 0.1, 0.05, 0.01}
	table1Betas    = []float64{0.6, 0.1}
	warmDatasets   = []string{"cifar10-syn", "svhn-syn"}
	table1Datasets = []string{"fmnist-syn", "svhn-syn", "cifar10-syn", "cifar100-syn", "imagenet-syn"}
)

// warmupSeedOffset moves warm-up grids onto seeds no timed grid uses, so a
// warm-up never pre-computes (or pre-caches the environment of) a timed cell.
const warmupSeedOffset = 1 << 32

// workload is one set of inputs plus the topology that runs them.
type workload struct {
	name string
	why  string
	topo topoConfig
	// clients is the number of closed-loop clients; each submits its next
	// sweep only after reading the previous one's /result.
	clients int
	// probeHz is the open-loop status-read rate during the timed part. The
	// prober has one connection, so its rate must stay well under one read
	// per service time or samples queue behind each other: a read of a
	// CPU-saturated process takes ≈30 ms (20 Hz is safe, 30 Hz already
	// queues, 100 Hz reads 200 ms), and a read of a 1 500-cell sweep lists
	// every cell — ≈7 ms of CPU and ≈1.5 MB of garbage — so ctl_drain is
	// read at 5 Hz: the probe must stay a probe, not become the load.
	probeHz int
	// segCells is the number of cells per timed segment (see meter); 0 keeps
	// each lap's timed part in one piece.
	segCells int
	// prefill lists the cells setup stores before the warm-up (nil: none).
	prefill func(seed uint64, sz sizes) sweep.Spec
	// warmup and timed generate the grids from the seed; the program under
	// test only ever sees these generated specs.
	warmup func(seed uint64, sz sizes) []sweep.Spec
	timed  func(seed uint64, sz sizes) []sweep.Spec
	// wantComputed: every timed cell must be computed (cold) or none (warm).
	wantComputed bool
}

func workloads() []workload {
	return []workload{
		{
			name: "table_cold",
			why:  "paper Table 4 grid on the default local pool: fl round loop, methods, small-shape GEMM and sweep do the work",
			topo: topoConfig{kind: topoLocal, workers: 2}, clients: 1, probeHz: 20, wantComputed: true,
			warmup: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{Methods: threeMethods, Betas: sz.tableBetas[:1],
					IFs:   []float64{sz.tableIFs[0], sz.tableIFs[len(sz.tableIFs)-1]},
					Seeds: []uint64{seed + warmupSeedOffset}, Effort: sz.tableEffort}}
			},
			timed: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{Methods: threeMethods, Betas: sz.tableBetas, IFs: sz.tableIFs,
					Seeds: []uint64{seed}, Effort: sz.tableEffort}}
			},
		},
		{
			name: "cnn_cold",
			why:  "ResNetLite image grid through coordinator + 2 loopback workers: conv GEMM dominates, and real training crosses lease, wire upload and store",
			topo: topoConfig{kind: topoRemote, workers: 2, slots: 1}, clients: 1, probeHz: 20, wantComputed: true,
			warmup: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{Datasets: []string{"cifar10-img"}, Methods: []string{"fedavg", "fedwcm"},
					IFs: []float64{0.1}, Seeds: []uint64{seed + warmupSeedOffset}, Effort: sz.cnnEffort}}
			},
			timed: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{Datasets: []string{"cifar10-img"}, Methods: threeMethods, IFs: sz.cnnIFs,
					Seeds: []uint64{seed}, Effort: sz.cnnEffort}}
			},
		},
		{
			name: "ctl_drain",
			why:  "one many-cell sweep of no-op cells through the WAL coordinator: dispatch, wal, wire and store.Put do all the work, fl none",
			topo: topoConfig{kind: topoRemoteWAL, workers: 2, slots: 4, canned: true}, clients: 1, probeHz: 5, wantComputed: true, segCells: 250,
			warmup: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{SeedCount: sz.drainWarmup, SeedBase: drainBase(seed) + warmupSeedOffset, Effort: 0.1}}
			},
			timed: func(seed uint64, sz sizes) []sweep.Spec {
				return []sweep.Spec{{SeedCount: sz.drainCells, SeedBase: drainBase(seed), Effort: 0.1}}
			},
		},
		{
			name: "warm_reads",
			why:  "distinct overlapping sub-grids of a pre-filled store: sweep expand/fingerprint/aggregate, store.Get and serve JSON do the work, training none",
			topo: topoConfig{kind: topoLocal, workers: 2}, clients: 2, probeHz: 20, segCells: 5000,
			prefill: func(seed uint64, sz sizes) sweep.Spec {
				return sweep.Spec{Datasets: warmDatasets, Methods: table1Methods, IFs: table1IFs, Betas: table1Betas,
					Seeds: []uint64{seed}, Effort: sz.warmEffort}
			},
			warmup: func(seed uint64, sz sizes) []sweep.Spec {
				all := warmSubgrids(seed, sz.warmSweeps+sz.warmWarmup, sz.warmEffort)
				return all[sz.warmSweeps:]
			},
			timed: func(seed uint64, sz sizes) []sweep.Spec {
				return warmSubgrids(seed, sz.warmSweeps, sz.warmEffort)
			},
		},
	}
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// drainBase spaces the seed ranges of different bench seeds apart, so two
// seeds never share a ctl_drain cell.
func drainBase(seed uint64) uint64 { return 1 + seed*1_000_000 }

// warmSubgrids returns the first n grids of a seeded permutation of every
// sub-grid of the pre-filled blocks: a non-empty subset of the 7 methods ×
// 3 of the 5 IFs × a non-empty subset of the 2 betas × a non-empty subset of
// the 2 datasets (127 × 10 × 3 × 3 = 11 430). They are pairwise distinct, so
// the server's idempotent-resubmit shortcut never fires.
func warmSubgrids(seed uint64, n int, effort float64) []sweep.Spec {
	const (
		methodSets = 1<<7 - 1
		ifSets     = 10 // C(5,3)
		pairSets   = 3  // non-empty subsets of two
		total      = methodSets * ifSets * pairSets * pairSets
	)
	if n > total {
		panic("bench: more warm_reads sub-grids requested than exist")
	}
	var ifTriples [][]float64
	for a := 0; a < len(table1IFs); a++ {
		for b := a + 1; b < len(table1IFs); b++ {
			for c := b + 1; c < len(table1IFs); c++ {
				ifTriples = append(ifTriples, []float64{table1IFs[a], table1IFs[b], table1IFs[c]})
			}
		}
	}
	perm := rand.New(rand.NewSource(int64(seed))).Perm(total)
	out := make([]sweep.Spec, n)
	for i := range out {
		k := perm[i]
		mask := k%methodSets + 1
		k /= methodSets
		ifs := ifTriples[k%ifSets]
		k /= ifSets
		betas := pairSubset(table1Betas, k%pairSets)
		k /= pairSets
		datasets := pairSubset(warmDatasets, k)
		var ms []string
		for bit, m := range table1Methods {
			if mask&(1<<bit) != 0 {
				ms = append(ms, m)
			}
		}
		out[i] = sweep.Spec{Datasets: datasets, Methods: ms, IFs: ifs, Betas: betas,
			Seeds: []uint64{seed}, Effort: effort}
	}
	return out
}

// pairSubset picks the k-th non-empty subset of a two-element slice.
func pairSubset[T any](pair []T, k int) []T {
	switch k {
	case 0:
		return pair[:1]
	case 1:
		return pair[1:]
	default:
		return pair
	}
}

// warmHistory is the artifact warm_reads pre-fills for one cell: shaped like
// real engine output (wire.SampleHistory), labelled with the cell's method.
func warmHistory(method string, evals int) *fl.History {
	h := wire.SampleHistory(evals, 10)
	h.Method = method
	return h
}
