package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fedwcm/internal/data"
	"fedwcm/internal/dispatch"
	"fedwcm/internal/dispatch/wal"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/loss"
	"fedwcm/internal/nn"
	"fedwcm/internal/obs"
	"fedwcm/internal/partition"
	"fedwcm/internal/serve"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
	"fedwcm/internal/tensor"
	"fedwcm/internal/wire"
	"fedwcm/internal/xrand"
)

// probeBatches is N in min-of-N: each probe times this many batches of a
// fixed iteration count and reports the fastest batch's mean, the estimate
// least disturbed by the host.
const probeBatches = 5

// probeSink keeps probed results alive so the calls cannot be elided.
var probeSink any

// timeMin runs fn in probeBatches batches of iters calls and returns the
// fastest batch's time per call.
func timeMin(iters int, fn func()) time.Duration {
	best := time.Duration(0)
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(start) / time.Duration(iters); b == 0 || d < best {
			best = d
		}
	}
	return best
}

// runProbes times public functions of single layers on fixed inputs, in
// isolation. They do not depend on the workload or the seed, so the same
// numbers appear under every workload's traced run.
func runProbes(opt options) []layerMetric {
	var out []layerMetric
	add := func(name, unit string, v float64) {
		out = append(out, layerMetric{name: name, unit: unit, value: v, listed: true})
	}
	n := func(iters int) int { return max(1, iters/opt.sz.probeScale) }

	// --- tensor: the GEMM shapes the two model families run ---
	gemm := func(rows, inner, cols int) (dst, a, b, bt, at, dstAT *tensor.Dense) {
		r := xrand.New(7)
		mk := func(x, y int) *tensor.Dense {
			d := tensor.NewDense(x, y)
			for i := range d.Data {
				d.Data[i] = r.NormFloat64()
			}
			return d
		}
		return tensor.NewDense(rows, cols), mk(rows, inner), mk(inner, cols), mk(cols, inner), mk(rows, cols), tensor.NewDense(inner, cols)
	}
	{
		dst, a, b, bt, at, dstAT := gemm(16, 144, 144) // ResNetLite body conv, per sample
		add("tensor.matmul_conv_us", "us", us(timeMin(n(1000), func() { tensor.MatMulInto(dst, a, b) })))
		add("tensor.matmul_bt_conv_us", "us", us(timeMin(n(1000), func() { tensor.MatMulBTInto(dst, a, bt) })))
		add("tensor.matmul_at_conv_us", "us", us(timeMin(n(1000), func() { tensor.MatMulATInto(dstAT, a, at) })))
		dst, a, b, _, _, _ = gemm(32, 48, 64) // BatchNorm-MLP hidden layer 1
		add("tensor.matmul_mlp_us", "us", us(timeMin(n(10000), func() { tensor.MatMulInto(dst, a, b) })))
	}

	// --- nn: one training step of each model family ---
	step := func(net *nn.Network, x *tensor.Dense, labels []int) func() {
		ce := loss.CrossEntropy{}
		return func() {
			net.ZeroGrad()
			logits := net.Forward(x, true)
			_, dl := ce.LossAndGrad(logits, labels)
			net.Backward(dl)
			net.Step(0.1)
		}
	}
	batch := func(rows, dim int) (*tensor.Dense, []int) {
		r := xrand.New(2)
		x := tensor.NewDense(rows, dim)
		r.FillNorm(x.Data, 0, 1)
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = r.Intn(10)
		}
		return x, labels
	}
	{
		x, labels := batch(32, 3*12*12)
		cnnStep := step(nn.NewResNetLite(1, 3, 12, 12, 10, 8), x, labels)
		cnnStep() // grow the activation workspaces before counting
		add("nn.resnetlite_step_ms", "ms", ms(timeMin(n(10), cnnStep)))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		iters := n(10)
		for i := 0; i < iters; i++ {
			cnnStep()
		}
		runtime.ReadMemStats(&m1)
		add("nn.resnetlite_step_allocs", "count", float64(m1.Mallocs-m0.Mallocs)/float64(iters))
		x, labels = batch(50, 48)
		add("nn.mlpbn_step_us", "us", us(timeMin(n(1000), step(nn.NewMLP(1, 48, []int{64, 32}, 10, true), x, labels))))
	}

	// --- fl / methods / data: the round loop's pieces on a small fixed env ---
	{
		spec := data.GaussianSpec{Classes: 10, Dim: 48, Sep: 3.6, Noise: 1, SubModes: 2}
		train := spec.Generate(1, 1, data.LongTailCounts(200, 10, 0.1))
		test := spec.Generate(1, 2, data.UniformCounts(20, 10))
		build := nn.MLPBuilder(48, []int{64, 32}, 10, true)

		part := partition.EqualQuantity(xrand.New(2), train, 8, 0.1)
		cfg := fl.Config{Rounds: 4, SampleClients: 6, LocalEpochs: 2, BatchSize: 32,
			EtaL: 0.1, EtaG: 1, Seed: 1, EvalEvery: 100, Workers: 2, DropProb: 0.1}
		env := fl.NewEnv(cfg, train, test, part, build, loss.CrossEntropy{})
		hot := func() { probeSink = fl.Run(env, methods.NewFedCM(0.1)) }
		hot()
		add("fl.round_hot_path_ms", "ms", ms(timeMin(n(10), hot)))

		part = partition.EqualQuantity(xrand.New(2), train, 4, 0.1)
		cfg = fl.Config{Rounds: 1, SampleClients: 4, LocalEpochs: 5, BatchSize: 50,
			EtaL: 0.1, EtaG: 1, Seed: 1, EvalEvery: 1, Workers: 1}
		env = fl.NewEnv(cfg, train, test, part, build, loss.CrossEntropy{})
		net := env.Build(1)
		ctx := &fl.ClientCtx{Client: env.Clients[0], Env: env, Net: net, Global: net.Vector(), RNG: xrand.New(3)}
		mom := make([]float64, len(ctx.Global))
		add("fl.client_local_round_ms", "ms", ms(timeMin(n(25), func() {
			ctx.Net.SetVector(ctx.Global)
			fl.RunLocalSGD(ctx, fl.LocalOpts{Alpha: 0.1, Momentum: mom})
		})))
		add("fl.evaluate_us", "us", us(timeMin(n(500), func() { fl.Evaluate(ctx.Net, env.Test, 256) })))

		m := methods.NewFedWCM(methods.DefaultWCMOptions())
		dim := len(ctx.Global)
		m.Init(env, dim)
		results := make([]*fl.ClientResult, 10)
		r := xrand.New(7)
		for i := range results {
			delta := make([]float64, dim)
			r.FillNorm(delta, 0, 0.01)
			results[i] = &fl.ClientResult{ClientID: i % len(env.Clients), N: 100, Steps: 20, Delta: delta}
		}
		global := tensor.CopyVec(ctx.Global)
		round := 0
		add("methods.fedwcm_aggregate_us", "us", us(timeMin(n(1000), func() { m.Aggregate(round, global, results); round++ })))

		cell := sweep.PresetSpec("cifar10-syn", "fedwcm", 0.1, 0.1, 1, opt.sz.tableEffort)
		add("data.env_build_ms", "ms", ms(timeMin(n(10), func() {
			e, err := cell.BuildEnv()
			if err != nil {
				panic(err) // a preset cell of a registered dataset always builds
			}
			probeSink = e
		})))
	}

	// --- sweep: Table 1 (350 cells) expansion and aggregation ---
	{
		table1 := sweep.Spec{Datasets: table1Datasets, Methods: table1Methods, IFs: table1IFs, Betas: table1Betas,
			Seeds: []uint64{1}, Effort: 0.1}
		cells, err := table1.Expand()
		if err != nil {
			panic(err) // the paper's own grid is a legal sweep
		}
		add("sweep.expand_350_ms", "ms", ms(timeMin(n(5), func() { probeSink, _ = table1.Expand() })))
		results := make([]sweep.CellResult, len(cells))
		for i, c := range cells {
			results[i] = sweep.CellResult{Cell: c, Status: sweep.CellCached, Hist: warmHistory(c.Axes.Method, opt.sz.warmEvals)}
		}
		add("sweep.aggregate_350_ms", "ms", ms(timeMin(n(20), func() { probeSink = sweep.NewResult(table1, results) })))
	}

	// --- wire: the result upload of one training history ---
	{
		hist := wire.SampleHistory(20, 10)
		body := wire.EncodeResult(hist, "")
		add("wire.encode_result_us", "us", us(timeMin(n(2000), func() { probeSink = wire.EncodeResult(hist, "") })))
		add("wire.decode_result_us", "us", us(timeMin(n(2000), func() { probeSink, _, _ = wire.DecodeResult(body) })))
		add("wire.result_bytes", "B", float64(len(body)))
	}

	// --- obs: what every instrumented call site pays ---
	{
		c := obs.NewRegistry().Counter("bench_probe_total", "probe")
		add("obs.counter_inc_ns", "ns", float64(timeMin(n(1_000_000), c.Inc)))
		tr := obs.NewTracer(0)
		add("obs.span_ns", "ns", float64(timeMin(n(200_000), func() { tr.Start("probe", "bench.span").End() })))
	}

	// --- store / wal / coordinator: the durable pieces, on the lap filesystem ---
	return append(out, diskProbes(opt, n)...)
}

// diskProbes times the layers whose cost is mostly fsync, in a directory
// under the same temp root the laps use.
func diskProbes(opt options, n func(int) int) []layerMetric {
	var out []layerMetric
	add := func(name, unit string, v float64) {
		out = append(out, layerMetric{name: name, unit: unit, value: v, listed: true})
	}
	dir, err := os.MkdirTemp(opt.root, "probes-*")
	if err != nil {
		panic(err) // the laps just used this root
	}
	defer os.RemoveAll(dir)
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("bench: disk probe: %v", err))
		}
	}
	fp := func(i int) string { return benchJob(i).ID }

	// store: Put (two fsyncs), Get from memory, Get from disk.
	st, err := store.Open(filepath.Join(dir, "store"), store.DefaultLRUSize)
	must(err)
	hist := warmHistory("fedwcm", opt.sz.warmEvals)
	k := 0
	add("store.put_ms", "ms", ms(timeMin(n(40), func() { must(st.Put(fp(k), hist)); k++ })))
	add("store.get_mem_us", "us", us(timeMin(n(20000), func() { probeSink, _, _ = st.Get(fp(k - 1)) })))
	cold, err := store.Open(filepath.Join(dir, "store"), -1) // no LRU: every Get reads the file
	must(err)
	add("store.get_disk_us", "us", us(timeMin(n(500), func() { probeSink, _, _ = cold.Get(fp(0)) })))

	// serve: GET /v1/runs/{id} of a stored artifact, handler only.
	srv, err := serve.New(serve.Config{Store: st, Logf: quiet, Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(0)})
	must(err)
	req := httptest.NewRequest(http.MethodGet, "/v1/runs/"+fp(0), nil)
	add("serve.cached_run_get_us", "us", us(timeMin(n(1000), func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			panic(fmt.Sprintf("bench: cached run GET: HTTP %d", w.Code))
		}
	})))
	srv.Close()

	// wal: one durable append alone, and 32 appenders sharing group commits.
	log, _, err := wal.Open(filepath.Join(dir, "probe.wal"))
	must(err)
	spec := benchJob(0).Spec
	rec := func(i int) wal.Record { return wal.Record{Type: wal.TypeSubmit, Job: fp(i), Spec: spec} }
	j := 0
	add("wal.append_ms_c1", "ms", ms(timeMin(n(100), func() { must(log.Append(rec(j))); j++ })))
	add("wal.append_ms_c32", "ms", ms(timeMin(n(10), func() {
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				must(log.Append(rec(j + g)))
			}(g)
		}
		wg.Wait()
		j += 32
	})/32))
	must(log.Close())

	// wal.bytes_per_cell: the framed size of one cell's life (submit with a
	// real canonical spec, lease, complete) in a fresh log.
	sized, _, err := wal.Open(filepath.Join(dir, "sized.wal"))
	must(err)
	cellSpec, err := sweep.PresetSpec("cifar10-syn", "fedwcm", 0.1, 0.1, 1, 0.1).Defaults().CanonicalJSON()
	must(err)
	const sizedCells = 64
	for i := 0; i < sizedCells; i++ {
		must(sized.Append(
			wal.Record{Type: wal.TypeSubmit, Job: fp(i), Spec: cellSpec},
			wal.Record{Type: wal.TypeLease, Job: fp(i), Worker: "w-1", Attempts: 1},
			wal.Record{Type: wal.TypeComplete, Job: fp(i), Status: "stored"}))
	}
	add("wal.bytes_per_cell", "B", float64(sized.Size())/sizedCells)
	must(sized.Close())

	// coordinator: Submit into an in-memory queue, and into a journaled one
	// (one submitter, so every call waits for its own group commit).
	for _, c := range []struct {
		name, wal string
		iters     int
	}{
		{"dispatch.coord_submit_us", "", 2000},
		{"dispatch.coord_submit_wal_us", filepath.Join(dir, "coord.wal"), 200},
	} {
		coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
			Store: st, WALPath: c.wal, Queue: sweep.MaxCells, Logf: quiet,
			Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(0),
		})
		must(err)
		i := 1 << 20 // fingerprints no store probe above has written
		iters := min(n(c.iters), sweep.MaxCells/probeBatches)
		add(c.name, "us", us(timeMin(iters, func() {
			_, err := coord.Submit(benchJob(i), dispatch.SubmitOpts{})
			must(err)
			i++
		})))
		coord.Close()
	}
	return out
}
