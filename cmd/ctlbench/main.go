// Command ctlbench load-tests the dispatch control plane and records the
// trajectory as BENCH_control_plane.json. It is the harness behind the
// durable-coordinator work: the same workload runs against an in-memory
// coordinator and a WAL-backed one, so the fsync tax of durability is a
// tracked number instead of a guess.
//
// One run is three phases:
//
//   - Submit: N trivial cells (default 12000) pushed by concurrent
//     submitters into one coordinator, measuring per-submit latency — p50
//     and p99 at a queue depth the paper-scale sweeps actually reach. On
//     the WAL run every submit pays a group-committed fsync before it is
//     acknowledged.
//   - Recovery (WAL run only): the coordinator is closed with the full
//     queue journaled and a new one is opened on the same log, timing the
//     replay that re-enters every job.
//   - Drain: real dispatch.Worker clients join over localhost HTTP and
//     pull the queue dry with a no-op runner. Mid-drain some workers are
//     killed abruptly (their transport starts refusing, so leases lapse —
//     a crash, not a handover) and replacements join; sustained cells/sec
//     therefore includes lease-expiry requeues and late joiners, not just
//     the happy path.
//
// Usage: ctlbench [-out BENCH_control_plane.json] [-cells 12000]
// [-workers 8] [-slots 4] [-kill 2] [-join 2] [-lease 2s].
// CI smoke-runs this with -cells 1500 via scripts/bench.sh.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
)

type submitReport struct {
	Cells     int     `json:"cells"`
	Seconds   float64 `json:"seconds"`
	PerSec    float64 `json:"per_sec"`
	P50Micros float64 `json:"p50_us"`
	P99Micros float64 `json:"p99_us"`
	MaxMicros float64 `json:"max_us"`
}

type recoveryReport struct {
	Seconds   float64 `json:"seconds"`
	Recovered int     `json:"recovered"`
}

type drainReport struct {
	Seconds     float64 `json:"seconds"`
	Completed   int     `json:"completed"`
	Failed      int     `json:"failed"`
	CellsPerSec float64 `json:"cells_per_sec"`
	Killed      int     `json:"killed"`
	Joined      int     `json:"joined"`
	Reattached  int     `json:"reattached"`
}

type runReport struct {
	Mode     string          `json:"mode"` // memory | wal
	Submit   submitReport    `json:"submit"`
	Recovery *recoveryReport `json:"recovery,omitempty"`
	Drain    drainReport     `json:"drain"`
	WALBytes int64           `json:"wal_bytes_final,omitempty"`
}

type report struct {
	Go      string      `json:"go"`
	Cells   int         `json:"cells"`
	Workers int         `json:"workers"`
	Slots   int         `json:"slots"`
	Runs    []runReport `json:"runs"`
}

// chatter is the coordinator/worker log sink: silent by default (the bench
// output is the report, not the chatter), wired to stderr by -v.
var chatter = func(string, ...any) {}

// killableTransport lets the harness crash a worker without cooperation:
// once dead, every request — heartbeats included — fails, so the
// coordinator sees silence and the lease reaper takes over. Cancelling the
// worker's context instead would deregister cleanly, which is a handover,
// not a crash.
type killableTransport struct {
	dead atomic.Bool
	base http.RoundTripper
}

func (k *killableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("ctlbench: worker killed")
	}
	return k.base.RoundTrip(req)
}

// benchJob builds cell i: a tiny opaque spec with the content-address
// contract the real system uses (ID = sha256 of the canonical bytes).
func benchJob(i int) dispatch.Job {
	spec := fmt.Sprintf(`{"bench":"ctl","cell":%d}`, i)
	sum := sha256.Sum256([]byte(spec))
	return dispatch.Job{ID: hex.EncodeToString(sum[:]), Spec: json.RawMessage(spec)}
}

// noopRunner completes instantly: the bench measures the control plane —
// queue, leases, WAL, HTTP — not training.
func noopRunner(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
	return &fl.History{Method: "ctlbench", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

type benchConfig struct {
	cells, workers, slots, kill, join, submitters int
	lease                                         time.Duration
}

func printRun(r runReport, cfg benchConfig) {
	fmt.Printf("%-6s submit %7.0f cells/s (p50 %.0fµs p99 %.0fµs)  drain %7.0f cells/s (%d/%d, %d killed, %d joined)\n",
		r.Mode, r.Submit.PerSec, r.Submit.P50Micros, r.Submit.P99Micros,
		r.Drain.CellsPerSec, r.Drain.Completed, cfg.cells, r.Drain.Killed, r.Drain.Joined)
	if r.Recovery != nil {
		fmt.Printf("%-6s recovery replayed %d jobs in %.3fs (final WAL %d bytes)\n",
			r.Mode, r.Recovery.Recovered, r.Recovery.Seconds, r.WALBytes)
	}
}

// submitPhase pushes every job through exec from cfg.submitters concurrent
// goroutines, recording per-call latency.
func submitPhase(exec dispatch.Executor, jobs []dispatch.Job, cfg benchConfig) ([]dispatch.Handle, submitReport, error) {
	handles := make([]dispatch.Handle, len(jobs))
	lat := make([]float64, len(jobs))
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < cfg.submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) || firstErr.Load() != nil {
					return
				}
				t0 := time.Now()
				h, err := exec.Submit(jobs[i], dispatch.SubmitOpts{})
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("submit cell %d: %w", i, err))
					return
				}
				lat[i] = float64(time.Since(t0).Microseconds())
				handles[i] = h
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, submitReport{}, err.(error)
	}
	secs := time.Since(start).Seconds()
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return handles, submitReport{
		Cells:     len(jobs),
		Seconds:   secs,
		PerSec:    float64(len(jobs)) / secs,
		P50Micros: quantile(sorted, 0.50),
		P99Micros: quantile(sorted, 0.99),
		MaxMicros: sorted[len(sorted)-1],
	}, nil
}

// runDrain is phase 3: real dispatch.Worker clients pull coord's queue dry
// over localhost HTTP (coordURL) while the harness crashes cfg.kill of them
// at one-third drained and brings up cfg.join late joiners.
func runDrain(cfg benchConfig, handles []dispatch.Handle, coord *dispatch.Coordinator, coordURL string) (drainReport, error) {
	var workerWG sync.WaitGroup
	var cancelMu sync.Mutex
	var cancels []context.CancelFunc
	startWorker := func(name string) (*killableTransport, context.CancelFunc, error) {
		kt := &killableTransport{base: http.DefaultTransport}
		w, err := dispatch.NewWorker(dispatch.WorkerConfig{
			Coordinator: coordURL,
			Runner:      noopRunner,
			Name:        name,
			Slots:       cfg.slots,
			PollWait:    time.Second,
			HTTPClient:  &http.Client{Transport: kt, Timeout: 30 * time.Second},
			Logf:        chatter,
			Metrics:     obs.NewRegistry(),
		})
		if err != nil {
			return nil, nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancelMu.Lock()
		cancels = append(cancels, cancel)
		cancelMu.Unlock()
		workerWG.Add(1)
		go func() { defer workerWG.Done(); w.Run(ctx) }()
		return kt, cancel, nil
	}

	var completed, failed atomic.Int64
	var drainWG sync.WaitGroup
	for _, h := range handles {
		drainWG.Add(1)
		go func(h dispatch.Handle) {
			defer drainWG.Done()
			<-h.Done()
			if _, err := h.Result(); err != nil {
				failed.Add(1)
			} else {
				completed.Add(1)
			}
		}(h)
	}

	drainStart := time.Now()
	type victim struct {
		kt     *killableTransport
		cancel context.CancelFunc
	}
	victims := make([]victim, 0, cfg.kill)
	for i := 0; i < cfg.workers; i++ {
		kt, cancel, err := startWorker(fmt.Sprintf("bench-%d", i))
		if err != nil {
			return drainReport{}, err
		}
		if i < cfg.kill {
			victims = append(victims, victim{kt, cancel})
		}
	}
	// Mid-drain chaos: once a third of the queue has drained, crash the
	// victims (transport dies first, so no clean deregister happens) and
	// bring up the same number of late joiners.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		third := int64(len(handles)) / 3
		for completed.Load()+failed.Load() < third {
			time.Sleep(20 * time.Millisecond)
		}
		for _, v := range victims {
			v.kt.dead.Store(true)
			v.cancel()
		}
		for i := 0; i < cfg.join; i++ {
			if _, _, err := startWorker(fmt.Sprintf("bench-late-%d", i)); err != nil {
				fmt.Fprintln(os.Stderr, "ctlbench: late joiner:", err)
			}
		}
	}()
	drainWG.Wait()
	drainSecs := time.Since(drainStart).Seconds()
	<-chaosDone
	rep := drainReport{
		Seconds:     drainSecs,
		Completed:   int(completed.Load()),
		Failed:      int(failed.Load()),
		CellsPerSec: float64(completed.Load()) / drainSecs,
		Killed:      cfg.kill,
		Joined:      cfg.join,
		Reattached:  coord.Stats().Reattached,
	}

	cancelMu.Lock()
	for _, cancel := range cancels {
		cancel()
	}
	cancelMu.Unlock()
	workerWG.Wait() // workers deregister while the coordinator is still up
	return rep, nil
}

func main() {
	var (
		out     = flag.String("out", "BENCH_control_plane.json", "report path")
		cells   = flag.Int("cells", 12000, "queued cells per run")
		workers = flag.Int("workers", 8, "workers draining the queue")
		slots   = flag.Int("slots", 4, "concurrent leases per worker")
		kill    = flag.Int("kill", 2, "workers killed abruptly mid-drain")
		joiners = flag.Int("join", 2, "workers joining mid-drain")
		lease   = flag.Duration("lease", 2*time.Second, "coordinator lease TTL")
		subs    = flag.Int("submitters", 32, "concurrent submit goroutines")
		verbose = flag.Bool("v", false, "log coordinator and worker chatter to stderr")
	)
	flag.Parse()
	if *verbose {
		chatter = func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }
	}
	cfg := benchConfig{
		cells: *cells, workers: *workers, slots: *slots,
		kill: *kill, join: *joiners, submitters: *subs, lease: *lease,
	}

	rep := report{Go: runtime.Version(), Cells: cfg.cells, Workers: cfg.workers, Slots: cfg.slots}
	for _, mode := range []string{"memory", "wal"} {
		r, err := runMode(mode, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ctlbench: %s run: %v\n", mode, err)
			os.Exit(1)
		}
		rep.Runs = append(rep.Runs, r)
		printRun(r, cfg)
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ctlbench:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func runMode(mode string, cfg benchConfig) (runReport, error) {
	dir, err := os.MkdirTemp("", "ctlbench-*")
	if err != nil {
		return runReport{}, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "store"), store.DefaultLRUSize)
	if err != nil {
		return runReport{}, err
	}
	walPath := ""
	if mode == "wal" {
		walPath = filepath.Join(dir, "coord.wal")
	}
	logf := chatter
	mkCoord := func() (*dispatch.Coordinator, error) {
		return dispatch.NewCoordinator(dispatch.CoordinatorConfig{
			Store:    st,
			LeaseTTL: cfg.lease,
			Queue:    cfg.cells + 16,
			WALPath:  walPath,
			Logf:     logf,
			Metrics:  obs.NewRegistry(), // own registry: three coordinators per process
			Tracer:   obs.NewTracer(0),
		})
	}
	coord, err := mkCoord()
	if err != nil {
		return runReport{}, err
	}

	jobs := make([]dispatch.Job, cfg.cells)
	for i := range jobs {
		jobs[i] = benchJob(i)
	}

	// Phase 1: concurrent submit, per-call latency. On the WAL run each
	// call holds until its record is fsynced (group commit batches
	// whatever accumulated while the previous sync was in flight).
	handles, sub, err := submitPhase(coord, jobs, cfg)
	if err != nil {
		return runReport{}, err
	}
	rep := runReport{Mode: mode, Submit: sub}

	// Phase 2 (WAL only): crash-and-recover with the full queue journaled.
	// Close is the orderly stand-in for SIGKILL here — it journals no
	// completes, so the log state matches a crash; the SIGKILL-for-real
	// path is exercised by scripts/smoke_dispatch.sh.
	if mode == "wal" {
		coord.Close()
		t0 := time.Now()
		coord, err = mkCoord()
		if err != nil {
			return runReport{}, err
		}
		rec := recoveryReport{Seconds: time.Since(t0).Seconds(), Recovered: coord.Stats().Recovered}
		rep.Recovery = &rec
		// Fresh handles: resubmission coalesces onto the recovered jobs.
		for i := range jobs {
			if handles[i], err = coord.Submit(jobs[i], dispatch.SubmitOpts{}); err != nil {
				return runReport{}, fmt.Errorf("resubmit after recovery: %w", err)
			}
		}
	}
	defer coord.Close()

	// Phase 3: drain over real HTTP with deaths and joins mid-sweep.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return runReport{}, err
	}
	mux := http.NewServeMux()
	coord.Mount(mux)
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()
	coordURL := "http://" + ln.Addr().String()

	rep.Drain, err = runDrain(cfg, handles, coord, coordURL)
	if err != nil {
		return runReport{}, err
	}
	coord.Close() // idempotent with the defer; compacts nothing further
	if walPath != "" {
		if fi, err := os.Stat(walPath); err == nil {
			rep.WALBytes = fi.Size()
		}
	}
	return rep, nil
}
