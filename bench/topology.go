package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/serve"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// topoKind names how cells execute behind the public API.
type topoKind int

const (
	// topoLocal is the single-process default: serve.Server builds its own
	// dispatch.Local pool.
	topoLocal topoKind = iota
	// topoRemote is an in-memory dispatch.Coordinator mounted on the server,
	// fed by loopback dispatch.Workers.
	topoRemote
	// topoRemoteWAL is topoRemote with the coordinator's queue journaled to a
	// write-ahead log in the lap's directory.
	topoRemoteWAL
)

// topology is one lap's system under test: a real serve.Server behind a real
// loopback http.Server, a real store on the real filesystem, and the
// dispatch backend the workload asks for.
type topology struct {
	url   string
	store *store.Store
	envs  *sweep.EnvCache
	reg   *obs.Registry // server + coordinator series (read for counts only)

	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{}

	workerCancel context.CancelFunc
	workerWG     sync.WaitGroup
	workerRegs   []*obs.Registry
}

// quiet drops the system's log chatter; the bench output is the report.
func quiet(string, ...any) {}

// cannedRunner completes instantly with a one-round history: ctl_drain
// measures the control plane, not training.
func cannedRunner(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
	return &fl.History{Method: "canned", Stats: []fl.RoundStat{{Round: 1, TestAcc: 0.5}}}, nil
}

// topoConfig selects what newTopology builds.
type topoConfig struct {
	kind    topoKind
	workers int  // local pool size, or number of loopback workers
	slots   int  // leases per loopback worker
	canned  bool // cells run cannedRunner instead of training
	rec     *recorder
}

// newTopology brings the system up in dir and returns once every worker has
// registered, so no registration or listener start-up lands in a timed part.
func newTopology(dir string, cfg topoConfig) (*topology, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.DefaultLRUSize)
	if err != nil {
		return nil, err
	}
	t := &topology{
		store:  st,
		envs:   sweep.NewEnvCache(0),
		reg:    obs.NewRegistry(),
		served: make(chan struct{}),
	}
	tracer := obs.NewTracer(0)

	// The runner every backend of this lap executes. nil means "the system's
	// own default" and is only valid on an untraced local lap.
	var runner dispatch.Runner
	switch {
	case cfg.canned && cfg.rec != nil:
		runner = tracedCanned(cfg.rec, cannedRunner)
	case cfg.canned:
		runner = cannedRunner
	case cfg.rec != nil:
		runner = tracedRunner(cfg.rec, t.envs)
	case cfg.kind != topoLocal:
		runner = sweep.DispatchRunner(t.envs)
	}

	scfg := serve.Config{
		Store: st, Workers: cfg.workers, Envs: t.envs,
		Logf: quiet, Metrics: t.reg, Tracer: tracer,
	}
	switch cfg.kind {
	case topoLocal:
		if runner != nil {
			// The pool serve would have built itself, with our runner in it.
			local, err := dispatch.NewLocal(dispatch.LocalConfig{
				Runner: runner, Workers: cfg.workers, Store: st,
				Logf: quiet, Metrics: t.reg, Tracer: tracer,
			})
			if err != nil {
				return nil, err
			}
			scfg.Executor = local
			if cfg.rec != nil {
				scfg.Executor = &tracedExec{inner: local, rec: cfg.rec}
			}
		}
	case topoRemote, topoRemoteWAL:
		ccfg := dispatch.CoordinatorConfig{
			Store: st, Logf: quiet, Metrics: t.reg, Tracer: tracer,
		}
		if cfg.kind == topoRemoteWAL {
			ccfg.WALPath = filepath.Join(dir, "coord.wal")
		}
		coord, err := dispatch.NewCoordinator(ccfg)
		if err != nil {
			return nil, err
		}
		scfg.Executor = coord
		if cfg.rec != nil {
			scfg.Executor = tracedCoord{&tracedExec{inner: coord, rec: cfg.rec}, coord}
		}
	}
	if t.srv, err = serve.New(scfg); err != nil {
		if scfg.Executor != nil {
			scfg.Executor.Close()
		}
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.srv.Close()
		return nil, err
	}
	t.url = "http://" + ln.Addr().String()
	t.httpSrv = &http.Server{Handler: t.srv}
	go func() {
		defer close(t.served)
		t.httpSrv.Serve(ln) // returns ErrServerClosed from close()
	}()

	if cfg.kind != topoLocal {
		if err := t.startWorkers(cfg, runner); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// startWorkers joins cfg.workers loopback workers and waits until each is
// registered with the coordinator.
func (t *topology) startWorkers(cfg topoConfig, runner dispatch.Runner) error {
	ctx, cancel := context.WithCancel(context.Background())
	t.workerCancel = cancel
	var workers []*dispatch.Worker
	for i := 0; i < cfg.workers; i++ {
		hc := &http.Client{Timeout: 60 * time.Second}
		if cfg.rec != nil {
			hc.Transport = &tracedTransport{base: http.DefaultTransport, rec: cfg.rec}
		}
		reg := obs.NewRegistry()
		w, err := dispatch.NewWorker(dispatch.WorkerConfig{
			Coordinator: t.url, Runner: runner,
			Name: fmt.Sprintf("bench-%d", i), Slots: cfg.slots,
			PollWait: 2 * time.Second, HTTPClient: hc, Logf: quiet, Metrics: reg,
		})
		if err != nil {
			return err
		}
		workers = append(workers, w)
		t.workerRegs = append(t.workerRegs, reg)
		t.workerWG.Add(1)
		go func() {
			defer t.workerWG.Done()
			w.Run(ctx) // returns ctx.Err() once cancelled by close()
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for _, w := range workers {
		for !w.Ready() {
			if time.Now().After(deadline) {
				return fmt.Errorf("bench: worker did not register within 10s")
			}
			time.Sleep(time.Millisecond)
		}
	}
	return nil
}

// close stops the workers (they deregister while the coordinator is still
// up), then the server and its listener, and waits for all of them.
func (t *topology) close() {
	if t.workerCancel != nil {
		t.workerCancel()
		t.workerWG.Wait()
	}
	t.httpSrv.Close()
	<-t.served
	t.srv.Close()
}
