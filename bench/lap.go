package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fedwcm/internal/obs"
	"fedwcm/internal/store"
)

// lapConfig is everything one lap needs; nothing in it changes between the
// laps of a run except traced.
type lapConfig struct {
	w      workload
	sz     sizes
	seed   uint64
	root   string // temp root the lap's directory is created under
	traced bool
	// forceLocal runs the workload's cells on the local pool whatever its
	// own topology is — how golden.json is recorded, so the remote workloads
	// prove byte-identity across topologies.
	forceLocal bool
}

// lapResult is what one lap measured. Everything timed covers the timed part
// only (first timed request → last /result body read).
type lapResult struct {
	setupS      float64 // lap start → first timed request
	setupStolen float64 // share of the VM's CPU the hypervisor took during set-up
	timedS      float64
	spinMS      float64 // fixed CPU loop before the lap: a disturbed host shows here
	stolenS     float64 // CPU time the hypervisor took from the VM during the lap

	cells    int // cells in the timed sweeps, as the server expanded them
	sweeps   int
	cached   int
	computed int

	// segs cuts the timed part into stretches of a fixed number of cells;
	// the gated rates are medians over the segments of every lap.
	segs []segment

	cpuS       float64 // process user+sys over the timed part
	allocBytes uint64  // runtime TotalAlloc delta
	gcCycles   uint32

	statusMS []float64 // prober: due → body read
	lateMS   []float64 // prober: due → sent

	attempted int
	failed    int
	failures  []string // first few reasons, for the report

	digest        string // SHA-256 over the sorted artifacts
	artifactBytes int64

	store     store.Stats        // delta over the timed part
	envBuilds uint64             // EnvCache misses over the timed part
	counters  map[string]float64 // obs counter deltas over the timed part (counts only)

	// traced laps only
	spans  []span
	lo, hi time.Duration // the timed part on the recorder's clock
	lanes  int           // worker slots that can run a cell at once
}

func (r *lapResult) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// spinSink keeps hostSpin's loop from being optimised away.
var spinSink uint64

// hostSpin times a fixed CPU loop. It is recorded, never used to normalise:
// a lap whose spin is slow ran on a disturbed host.
func hostSpin() float64 {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink += x
	return ms(time.Since(start))
}

// procSnapshot is the process state read at both ends of a timed part.
type procSnapshot struct {
	cpuS     float64
	alloc    uint64
	gc       uint32
	store    store.Stats
	envMiss  uint64
	counters map[string]float64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stolenSeconds reads the time the hypervisor ran something else on this
// VM's CPUs (the steal column of /proc/stat, summed over CPUs); 0 where the
// kernel does not report it. It never corrects a value; it decides which
// samples were measured on a quiet host (quietMedian).
func stolenSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100 // USER_HZ is 100 on every Linux port Go supports
}

// segment is one stretch of a lap's timed part: the cells whose terminal
// event the client read in it, and what the stretch cost.
type segment struct {
	cells   int
	wallS   float64
	cpuS    float64 // process user+sys
	stolenS float64 // hypervisor steal, summed over the VM's CPUs
}

// stolenShare is the part of the VM's CPU capacity the hypervisor gave to
// someone else during the segment.
func (g segment) stolenShare() float64 {
	return ratio(g.stolenS, g.wallS*float64(runtime.NumCPU()))
}

// meter cuts the timed part into segments of `every` cells. Host
// disturbances come in bursts shorter than a lap, so a median over many
// short segments sets a burst aside where a lap total absorbs it.
type meter struct {
	every int // cells per segment; 0 keeps the timed part in one segment

	mu      sync.Mutex
	pending int // cells since the last cut
	t       time.Time
	cpuS    float64
	stolenS float64
	segs    []segment
}

func (m *meter) start() {
	m.t, m.cpuS, m.stolenS = time.Now(), cpuSeconds(), stolenSeconds()
}

// cell counts one cell reaching its terminal state.
func (m *meter) cell() {
	m.mu.Lock()
	m.pending++
	if m.every > 0 && m.pending >= m.every {
		m.cut()
	}
	m.mu.Unlock()
}

func (m *meter) cut() {
	now, cpu, stolen := time.Now(), cpuSeconds(), stolenSeconds()
	m.segs = append(m.segs, segment{m.pending, now.Sub(m.t).Seconds(), cpu - m.cpuS, stolen - m.stolenS})
	m.pending, m.t, m.cpuS, m.stolenS = 0, now, cpu, stolen
}

// finish closes the last segment at the end of the timed part; a tail of
// less than half a segment (the last /result read, usually) joins the
// segment before it.
func (m *meter) finish() []segment {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut()
	if n := len(m.segs); n >= 2 && m.segs[n-1].cells < (m.every+1)/2 {
		a, b := &m.segs[n-2], m.segs[n-1]
		a.cells, a.wallS, a.cpuS, a.stolenS = a.cells+b.cells, a.wallS+b.wallS, a.cpuS+b.cpuS, a.stolenS+b.stolenS
		m.segs = m.segs[:n-1]
	}
	return m.segs
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func snapshot(t *topology) procSnapshot {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSnapshot{
		cpuS: cpuSeconds(), alloc: m.TotalAlloc, gc: m.NumGC,
		store: t.store.Stats(), envMiss: t.envs.Stats().Misses,
		counters: counterValues(append([]*obs.Registry{t.reg}, t.workerRegs...)...),
	}
}

// counterValues reads every series of the registries' text exposition,
// summed per metric name (labels and histogram buckets dropped). The bench
// uses them for counts only, never for time.
func counterValues(regs ...*obs.Registry) map[string]float64 {
	out := make(map[string]float64)
	for _, reg := range regs {
		var buf bytes.Buffer
		if _, err := reg.WriteTo(&buf); err != nil {
			continue
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			name := line[:sp]
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			if strings.HasSuffix(name, "_bucket") {
				continue
			}
			if v, err := strconv.ParseFloat(line[sp+1:], 64); err == nil {
				out[name] += v
			}
		}
	}
	return out
}

// runLap builds a fresh topology in a fresh directory, warms it up, runs the
// timed sweeps and verifies what they produced. An error means the lap could
// not be run at all; a verification failure is counted in the result.
func runLap(cfg lapConfig) (*lapResult, error) {
	// The previous lap's deleted directory is still dirty in the filesystem
	// journal; flush it so this lap's fsyncs pay only for their own data.
	syscall.Sync()
	res := &lapResult{spinMS: hostSpin()}
	lapStart := time.Now()
	stolen0 := stolenSeconds()
	defer func() { res.stolenS = stolenSeconds() - stolen0 }()

	dir, err := os.MkdirTemp(cfg.root, cfg.w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	tc := cfg.w.topo
	tc.rec = rec
	if cfg.forceLocal {
		tc.kind, tc.workers = topoLocal, 2
	}
	res.lanes = tc.workers
	if tc.kind != topoLocal {
		res.lanes = tc.workers * tc.slots
	}
	topo, err := newTopology(dir, tc)
	if err != nil {
		return nil, err
	}
	defer topo.close()

	// Inputs, from the seed alone.
	warm := cfg.w.warmup(cfg.seed, cfg.sz)
	timed := cfg.w.timed(cfg.seed, cfg.sz)
	wantCells := make([]int, len(timed))
	artifactIDs := make(map[string]struct{})
	for i, sp := range timed {
		cells, err := sp.Expand()
		if err != nil {
			return nil, fmt.Errorf("expanding timed grid %d: %w", i, err)
		}
		wantCells[i] = len(cells)
		for _, c := range cells {
			artifactIDs[c.ID] = struct{}{}
		}
	}
	if cfg.w.prefill != nil {
		cells, err := cfg.w.prefill(cfg.seed, cfg.sz).Expand()
		if err != nil {
			return nil, fmt.Errorf("expanding pre-fill grid: %w", err)
		}
		for _, c := range cells {
			if err := topo.store.Put(c.ID, warmHistory(c.Axes.Method, cfg.sz.warmEvals)); err != nil {
				return nil, fmt.Errorf("pre-filling store: %w", err)
			}
			artifactIDs[c.ID] = struct{}{}
		}
	}

	// All load comes from this process over at most nproc connections; the
	// prober has one of its own so a sample never queues behind the load.
	nproc := runtime.NumCPU()
	loadTr := &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc}
	probeTr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer loadTr.CloseIdleConnections()
	defer probeTr.CloseIdleConnections()
	var loadRT, probeRT http.RoundTripper = loadTr, probeTr
	if rec != nil {
		loadRT = &tracedTransport{base: loadTr, rec: rec}
		probeRT = &tracedTransport{base: probeTr, rec: rec}
	}
	pr := newProber(topo.url, &http.Client{Transport: probeRT, Timeout: 60 * time.Second}, cfg.w.probeHz)
	api := &apiClient{base: topo.url, hc: &http.Client{Transport: loadRT}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Second)
	defer cancel()

	// Warm-up: a reduced copy of the lap's own grid on seeds the timed part
	// never touches, so lazy initialisation and heap growth are paid here.
	for i, sp := range warm {
		out, err := api.runSweep(ctx, sp)
		if err != nil || out.Failed > 0 {
			return nil, fmt.Errorf("warm-up sweep %d: failed=%d err=%v", i, out.Failed, err)
		}
	}
	runtime.GC()

	res.setupS = time.Since(lapStart).Seconds()
	res.setupStolen = ratio(stolenSeconds()-stolen0, res.setupS*float64(nproc))
	before := snapshot(topo)
	if rec != nil {
		res.lo = time.Since(rec.origin)
	}
	api.onSubmit = pr.follow
	mt := &meter{every: cfg.w.segCells}
	api.onCell = mt.cell
	pr.start()
	t0 := time.Now()
	mt.start()

	outcomes := make([]sweepOutcome, len(timed))
	errs := make([]error, len(timed))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < cfg.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(timed) {
					return
				}
				outcomes[i], errs[i] = api.runSweep(ctx, timed[i])
			}
		}()
	}
	wg.Wait()

	res.segs = mt.finish()
	res.timedS = time.Since(t0).Seconds()
	if rec != nil {
		res.hi = time.Since(rec.origin)
	}
	pr.halt()
	after := snapshot(topo)

	res.cpuS = after.cpuS - before.cpuS
	res.allocBytes = after.alloc - before.alloc
	res.gcCycles = after.gc - before.gc
	res.envBuilds = after.envMiss - before.envMiss
	res.store = store.Stats{
		MemHits: after.store.MemHits - before.store.MemHits, DiskHits: after.store.DiskHits - before.store.DiskHits,
		Misses: after.store.Misses - before.store.Misses, Puts: after.store.Puts - before.store.Puts,
		Evictions: after.store.Evictions - before.store.Evictions,
	}
	res.counters = make(map[string]float64)
	for k, v := range after.counters {
		if d := v - before.counters[k]; d != 0 {
			res.counters[k] = d
		}
	}
	res.statusMS, res.lateMS = pr.latencyMS, pr.lateMS

	// Verification. Every request, cell and artifact is an operation; a
	// failed one is counted, reported and makes the run exit non-zero.
	res.sweeps = len(timed)
	res.attempted = len(timed) + len(pr.lateMS) + 1 // sweeps + status reads + the artifact digest
	res.failed += pr.failed
	for i, out := range outcomes {
		res.attempted += wantCells[i]
		if errs[i] != nil {
			res.fail("sweep %d: %v", i, errs[i])
			res.failed += wantCells[i] - 1 // none of its cells is verified done
			continue
		}
		res.cells += out.Total
		res.cached += out.Cached
		res.computed += out.Computed
		switch {
		case out.Total != wantCells[i]:
			res.fail("sweep %d: server expanded %d cells, bench %d", i, out.Total, wantCells[i])
		case out.Failed > 0:
			res.fail("sweep %d: %d cells failed", i, out.Failed)
			res.failed += out.Failed - 1
		case out.Cached+out.Computed != out.Total:
			res.fail("sweep %d: %d cached + %d computed of %d", i, out.Cached, out.Computed, out.Total)
		case cfg.w.wantComputed && out.Computed != out.Total:
			res.fail("sweep %d: cold grid but only %d of %d computed", i, out.Computed, out.Total)
		case !cfg.w.wantComputed && out.Computed != 0:
			res.fail("sweep %d: warm grid but %d cells computed", i, out.Computed)
		case out.Events != out.Total:
			res.fail("sweep %d: %d cell events for %d cells", i, out.Events, out.Total)
		}
	}
	res.digest, res.artifactBytes, err = digestArtifacts(topo.store, artifactIDs)
	if err != nil {
		res.fail("artifacts: %v", err)
	}
	if rec != nil {
		res.spans = rec.snapshot()
	}
	return res, nil
}

// digestArtifacts hashes every listed artifact as the store wrote it, in
// fingerprint order: equal digests mean byte-identical artifacts.
func digestArtifacts(st *store.Store, ids map[string]struct{}) (string, int64, error) {
	sorted := make([]string, 0, len(ids))
	for id := range ids {
		sorted = append(sorted, id)
	}
	sort.Strings(sorted)
	h := sha256.New()
	var total int64
	for _, id := range sorted {
		b, err := os.ReadFile(st.Path(id))
		if err != nil {
			return "", total, err
		}
		h.Write([]byte(id))
		h.Write(b)
		total += int64(len(b))
	}
	return hex.EncodeToString(h.Sum(nil)), total, nil
}

// lapsFor runs n laps of one workload, stopping at the first lap that could
// not be run.
func lapsFor(cfg lapConfig, n int, logf func(string, ...any)) ([]*lapResult, error) {
	var out []*lapResult
	for i := 0; i < n; i++ {
		r, err := runLap(cfg)
		if err != nil {
			return out, fmt.Errorf("%s lap %d: %w", cfg.w.name, i+1, err)
		}
		logf("  lap %d: setup %.3fs  timed %.3fs  %d cells  %.1f cells/s  spin %.1fms  stolen %.2fs  failed %d",
			i+1, r.setupS, r.timedS, r.cells, ratio(float64(r.cells), r.timedS), r.spinMS, r.stolenS, r.failed)
		out = append(out, r)
	}
	return out, nil
}
