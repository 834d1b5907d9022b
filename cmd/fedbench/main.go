// Command fedbench regenerates the paper's tables and figures. Each
// experiment id corresponds to one table/figure (see DESIGN.md's
// per-experiment index); -run all regenerates everything.
//
// Declarative experiments execute through the sweep layer against a
// content-addressed result store (-store), so cells shared across tables —
// and whole repeated invocations — are cache hits instead of recompute.
// Each experiment prints a "[sweep ...]" line reporting how many cells were
// cached versus computed. With -remote, each grid is submitted to a running
// fedserve's POST /v1/sweeps (which may itself be coordinator-backed, so a
// laptop drives a grid that trains on a fleet) and the counts are the
// server's; fig11 and table6, which train nothing, still compute locally.
//
// Examples:
//
//	fedbench -list
//	fedbench -run fig3
//	fedbench -run table1 -effort 0.3
//	fedbench -run all -effort 0.5 -out results
//	fedbench -run table1 -store ""          # disable the result store
//	fedbench -run table1 -remote http://localhost:8080   # the grid runs on fedserve
//
// A failed sweep prints one line per failed axes group (its first error)
// and exits non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"fedwcm/internal/experiments"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

func main() {
	var (
		run       = flag.String("run", "", "experiment id to run, or \"all\"")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		effort    = flag.Float64("effort", 1, "effort scale in (0,1]: scales rounds and data size")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		outDir    = flag.String("out", "", "also write each experiment's output to <out>/<id>.txt")
		cells     = flag.Int("cellworkers", 3, "concurrent sweep cells")
		storeDir  = flag.String("store", "results/store", "result store root (empty disables caching)")
		envCap    = flag.Int("envcache", sweep.DefaultEnvCacheCap, "environments kept in the shared env cache")
		remote    = flag.String("remote", "", "submit each experiment's grid to the fedserve at this base URL (POST /v1/sweeps) and render its results, instead of training in-process")
		logFormat = flag.String("log-format", "text", "log output format: text | json")
	)
	flag.Parse()

	if err := obs.SetupLogging(os.Stderr, *logFormat, "fedbench"); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}

	if *list || *run == "" {
		fmt.Println("available experiments:")
		for _, e := range experiments.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Title)
		}
		if *run == "" && !*list {
			fmt.Println("\nuse -run <id> or -run all")
		}
		return
	}

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedbench:", err)
			os.Exit(1)
		}
		st.Instrument(obs.Default())
	}

	// One environment cache across every experiment in this invocation:
	// tables sharing a dataset grid reuse each other's construction work.
	// Instrumented on the default registry so the "envs built/reused" summary
	// line and any /metrics scrape read the same counters.
	envs := sweep.NewEnvCache(*envCap)
	envs.Instrument(obs.Default())

	ids := []string{*run}
	if *run == "all" {
		ids = experiments.IDs()
	}
	for _, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedbench:", err)
			os.Exit(1)
		}
		var w io.Writer = os.Stdout
		var f *os.File
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "fedbench:", err)
				os.Exit(1)
			}
			f, err = os.Create(filepath.Join(*outDir, id+".txt"))
			if err != nil {
				fmt.Fprintln(os.Stderr, "fedbench:", err)
				os.Exit(1)
			}
			w = io.MultiWriter(os.Stdout, f)
		}
		fmt.Printf("=== %s: %s (effort %.2f)\n", e.ID, e.Title, *effort)
		start := time.Now()
		_, err = e.Execute(experiments.Options{
			Seed:        *seed,
			Effort:      *effort,
			CellWorkers: *cells,
			Store:       st,
			Envs:        envs,
			Remote:      *remote,
			Out:         w,
		})
		if f != nil {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fedbench:", err)
			os.Exit(1)
		}
		fmt.Printf("=== %s done in %s\n%s\n", e.ID, time.Since(start).Round(time.Millisecond), strings.Repeat("=", 60))
	}
}
