// Command fedserve runs the experiment run service: an HTTP API over the
// content-addressed result store, so repeated sweep cells are computed once
// and served from cache thereafter. Single cells go through /v1/runs;
// whole grids go through /v1/sweeps, which expands a declarative spec,
// recomputes only the missing fingerprints and aggregates mean±std
// server-side. Full endpoint reference: docs/API.md.
//
// Execution is pluggable (internal/dispatch). By default runs train on an
// in-process worker pool; with -remote the server instead coordinates a
// fleet of worker processes that join over HTTP, lease jobs, heartbeat
// progress and upload finished histories — so one grid spreads across as
// many machines as register. A worker is this same binary in -worker mode.
// One coordinator is the whole control plane (DESIGN.md "Why one
// coordinator"); -wal makes its queue survive a restart.
//
// Examples:
//
//	fedserve -addr :8080 -store ./results -workers 4
//	curl -s localhost:8080/v1/experiments
//	curl -s -X POST localhost:8080/v1/runs -d '{"dataset":"cifar10-syn","method":"fedwcm"}'
//	curl -s localhost:8080/v1/runs/<id>
//	curl -N localhost:8080/v1/runs/<id>/events
//	curl -s -X POST localhost:8080/v1/sweeps \
//	  -d '{"methods":["fedavg","fedwcm"],"ifs":[1,0.1],"seed_count":3,"effort":0.2}'
//	curl -s localhost:8080/v1/sweeps/<id>/result
//
//	# distributed: a coordinator and two workers
//	fedserve -remote -addr :8080 -store ./results
//	fedserve -worker -join http://localhost:8080 -slots 2
//	fedserve -worker -join http://localhost:8080 -slots 2
//
//	# durable: the coordinator journals its queue; a restart on the same
//	# -wal and -store replays it and the workers re-attach on their own
//	fedserve -remote -wal ./coord.wal -addr :8080 -store ./results
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/obs"
	"fedwcm/internal/serve"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address (server modes)")
		root    = flag.String("store", "results/store", "result store root directory")
		workers = flag.Int("workers", max(1, runtime.GOMAXPROCS(0)/2), "concurrent training runs (local backend)")
		queue   = flag.Int("queue", 64, "max queued (not yet running) submissions")
		lru     = flag.Int("lru", store.DefaultLRUSize, "in-memory history cache size")
		envCap  = flag.Int("envcache", sweep.DefaultEnvCacheCap, "environments kept in the env cache")

		remote   = flag.Bool("remote", false, "serve with the remote-worker backend: jobs wait for workers that -join")
		leaseTTL = flag.Duration("lease", 15*time.Second, "remote backend: lease TTL before a silent worker's job requeues")
		walPath  = flag.String("wal", "", "remote backend: write-ahead log path; queued and leased jobs survive a coordinator restart (empty = in-memory only)")

		tenantRPS   = flag.Float64("tenant-rps", 0, "admission: sustained run/sweep submissions per second per tenant, keyed by the X-Tenant header (0 = unlimited)")
		tenantBurst = flag.Int("tenant-burst", 0, "admission: per-tenant burst above -tenant-rps (0 derives from the rate)")
		maxPending  = flag.Int("max-pending", 0, "admission: shed submissions with 429 while the executor queue holds this many jobs (0 = no backpressure)")

		workerMode = flag.Bool("worker", false, "run as a worker: join a coordinator, lease and execute jobs")
		join       = flag.String("join", "", "worker mode: coordinator base URL, e.g. http://host:8080")
		name       = flag.String("name", "", "worker mode: name reported at registration")
		slots      = flag.Int("slots", 1, "worker mode: concurrent jobs this worker executes")
		obsAddr    = flag.String("obs-addr", "", "worker mode: serve /metrics, /healthz, /readyz and /debug on this address (empty = disabled)")

		logFormat = flag.String("log-format", "text", "log output format: text | json")
	)
	flag.Parse()
	if *walPath != "" && !*remote {
		// Only the coordinator journals; a local pool given -wal would run
		// without the durability the operator asked for.
		fmt.Fprintln(os.Stderr, "fedserve: -wal requires -remote (only the remote-worker coordinator journals its queue)")
		os.Exit(2)
	}

	if err := obs.SetupLogging(os.Stderr, *logFormat, "fedserve"); err != nil {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}
	logf := obs.Logf("fedserve")

	if *workerMode {
		if err := runWorker(*join, *name, *slots, *envCap, *obsAddr); err != nil && err != context.Canceled {
			fmt.Fprintln(os.Stderr, "fedserve:", err)
			os.Exit(1)
		}
		return
	}

	st, err := store.Open(*root, *lru)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}
	cfg := serve.Config{
		Store: st, Workers: *workers, QueueDepth: *queue, Envs: sweep.NewEnvCache(*envCap),
		Admission: serve.AdmissionConfig{TenantRPS: *tenantRPS, TenantBurst: *tenantBurst, MaxPending: *maxPending},
	}
	backend := fmt.Sprintf("local pool, %d workers", *workers)
	if *remote {
		coord, err := dispatch.NewCoordinator(dispatch.CoordinatorConfig{
			Store:    st,
			LeaseTTL: *leaseTTL,
			Queue:    *queue,
			WALPath:  *walPath,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedserve:", err)
			os.Exit(1)
		}
		cfg.Executor = coord
		backend = fmt.Sprintf("remote workers, lease TTL %v", *leaseTTL)
		if *walPath != "" {
			recovered := coord.Stats().Recovered
			backend += fmt.Sprintf(", WAL %s (%d jobs recovered)", *walPath, recovered)
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		<-sig
		logf("fedserve: shutting down")
		// Graceful: in-flight responses (incl. SSE on live runs) get a grace
		// period to finish; srv.Close below then cancels runs still training
		// so their streams terminate with a "done" event instead of hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			httpSrv.Close()
		}
	}()

	logf("fedserve: listening on %s (store %s; %s)", *addr, *root, backend)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "fedserve:", err)
		os.Exit(1)
	}
	srv.Close()    // cancel in-flight jobs and drain subscribers
	<-shutdownDone // let in-flight responses (SSE done events) drain before exit
}

// runWorker joins a coordinator and serves leases until SIGTERM/SIGINT,
// then deregisters so in-flight jobs hand over cleanly. obsAddr, when set,
// serves the worker's own observability surface (/metrics, /healthz,
// /readyz, /debug); readiness reflects a live registration with the
// coordinator.
func runWorker(join, name string, slots, envCap int, obsAddr string) error {
	if join == "" {
		return fmt.Errorf("-worker requires -join <coordinator url>")
	}
	logf := obs.Logf("worker")
	envs := sweep.NewEnvCache(envCap)
	envs.Instrument(obs.Default())
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: join,
		Runner:      sweep.DispatchRunner(envs),
		Name:        name,
		Slots:       slots,
	})
	if err != nil {
		return err
	}
	if obsAddr != "" {
		mux := http.NewServeMux()
		obs.Mount(mux, obs.Default(), obs.DefaultTracer(), w.Ready)
		go func() {
			if err := http.ListenAndServe(obsAddr, mux); err != nil {
				logf("fedserve: worker observability listener: %v", err)
			}
		}()
		logf("fedserve: worker observability on %s", obsAddr)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logf("fedserve: worker joining %s (%d slots)", join, slots)
	return w.Run(ctx)
}
