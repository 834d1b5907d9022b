// Command fedsim runs a single federated-learning experiment cell from
// flags and prints the accuracy trajectory. It is the interactive
// counterpart to cmd/fedbench (which regenerates whole tables/figures).
//
// Example:
//
//	fedsim -dataset cifar10-syn -method fedwcm -beta 0.6 -if 0.1 -rounds 60
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"fedwcm/internal/data"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/obs"
	"fedwcm/internal/sweep"
	"fedwcm/internal/trace"
)

func main() {
	var (
		dataset   = flag.String("dataset", "cifar10-syn", "dataset name: "+strings.Join(data.Names(), ", "))
		method    = flag.String("method", "fedwcm", "method name: "+strings.Join(methods.Names(), ", "))
		beta      = flag.Float64("beta", 0.1, "Dirichlet concentration (label skew; smaller = worse)")
		imf       = flag.Float64("if", 0.1, "imbalance factor tail/head in (0,1]")
		partition = flag.String("partition", "equal", "partition strategy: equal | fedgrab")
		clients   = flag.Int("clients", 30, "total number of clients")
		sample    = flag.Int("sample", 10, "clients sampled per round")
		rounds    = flag.Int("rounds", 60, "communication rounds")
		epochs    = flag.Int("epochs", 5, "local epochs")
		batch     = flag.Int("batch", 50, "local batch size")
		etaL      = flag.Float64("etal", 0.1, "local learning rate")
		etaG      = flag.Float64("etag", 1, "global learning rate")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		model     = flag.String("model", "auto", "model: auto | linear | mlp | resnet")
		scale     = flag.Float64("scale", 1, "dataset scale factor")
		evalEvery = flag.Int("eval", 5, "evaluate every n rounds")
		quiet     = flag.Bool("q", false, "only print the final summary line")
		csvPath   = flag.String("csv", "", "also write the history as CSV to this path")
		jsonPath  = flag.String("json", "", "also write the history as trace JSONL to this path")
		logFormat = flag.String("log-format", "text", "log output format: text | json")
	)
	flag.Parse()

	if err := obs.SetupLogging(os.Stderr, *logFormat, "fedsim"); err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(1)
	}

	spec := sweep.RunSpec{
		Dataset:   *dataset,
		Method:    *method,
		Beta:      *beta,
		IF:        *imf,
		Partition: *partition,
		Clients:   *clients,
		Model:     *model,
		Scale:     *scale,
		Cfg: fl.Config{
			Rounds:        *rounds,
			SampleClients: *sample,
			LocalEpochs:   *epochs,
			BatchSize:     *batch,
			EtaL:          *etaL,
			EtaG:          *etaG,
			Seed:          *seed,
			EvalEvery:     *evalEvery,
		},
	}
	hist, err := spec.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "fedsim:", err)
		os.Exit(1)
	}
	if !*quiet {
		for _, s := range hist.Stats {
			extra := ""
			if a, ok := s.Metrics["alpha"]; ok {
				extra = fmt.Sprintf("  alpha=%.3f", a)
			}
			fmt.Printf("round %4d  acc=%.4f  loss=%.4f%s\n", s.Round, s.TestAcc, s.TrainLoss, extra)
		}
	}
	fmt.Printf("%s dataset=%s beta=%.2f if=%.2f final=%.4f best=%.4f tail3=%.4f\n",
		*method, *dataset, *beta, *imf, hist.FinalAcc(), hist.BestAcc(), hist.TailMeanAcc(3))
	if *csvPath != "" {
		runs := map[string]*fl.History{*method: hist}
		if err := trace.SaveCSV(*csvPath, runs); err != nil {
			fmt.Fprintln(os.Stderr, "fedsim: csv:", err)
			os.Exit(1)
		}
	}
	if *jsonPath != "" {
		runs := map[string]*fl.History{*method: hist}
		if err := trace.SaveJSONL(*jsonPath, runs); err != nil {
			fmt.Fprintln(os.Stderr, "fedsim: json:", err)
			os.Exit(1)
		}
	}
}
