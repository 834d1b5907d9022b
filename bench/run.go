package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// metricSpec declares one end-to-end metric: its unit, which direction is
// better, and the share of the parent's median it may worsen by before a
// change counts as a regression (the same numbers BENCHMARK.json carries).
type metricSpec struct {
	name   string
	unit   string
	higher bool // higher is better
	bound  float64
}

// endToEnd lists the metrics a user of the system would see. The bounds are
// never below the A/A gap measured on the reference host (README "A/A").
var endToEnd = []metricSpec{
	{"cells_per_s", "1/s", true, 0.25},
	{"cpu_ms_per_cell", "ms", false, 0.25},
	{"alloc_kb_per_cell", "KiB", false, 0.10},
	{"setup_s", "s", false, 0.25},
}

// lapValues extracts one end-to-end metric from every lap, over the whole
// of its timed part.
func lapValues(laps []*lapResult, name string) []float64 {
	out := make([]float64, len(laps))
	for i, r := range laps {
		cells := float64(r.cells)
		switch name {
		case "cells_per_s":
			out[i] = ratio(cells, r.timedS)
		case "cpu_ms_per_cell":
			out[i] = ratio(r.cpuS*1000, cells)
		case "alloc_kb_per_cell":
			out[i] = ratio(float64(r.allocBytes)/1024, cells)
		case "setup_s":
			out[i] = r.setupS
		}
	}
	return out
}

// samples returns what an end-to-end metric is the median of. The two rates
// are sampled per segment (see meter), set-up time and allocation per lap;
// allocation does not depend on the host, so its samples carry no steal.
func samples(laps []*lapResult, name string) []sample {
	var out []sample
	for _, r := range laps {
		switch name {
		case "cells_per_s":
			for _, g := range r.segs {
				out = append(out, sample{ratio(float64(g.cells), g.wallS), g.stolenShare()})
			}
		case "cpu_ms_per_cell":
			for _, g := range r.segs {
				out = append(out, sample{ratio(g.cpuS*1000, float64(g.cells)), g.stolenShare()})
			}
		case "alloc_kb_per_cell":
			out = append(out, sample{ratio(float64(r.allocBytes)/1024, float64(r.cells)), 0})
		case "setup_s":
			out = append(out, sample{r.setupS, r.setupStolen})
		}
	}
	return out
}

// golden is bench/golden.json: the artifact digest of every workload at the
// default seed and full sizes, recorded from the local backend.
type golden struct {
	Seed    uint64            `json:"seed"`
	Sizes   string            `json:"sizes"`
	Digests map[string]string `json:"digests"`
}

const goldenPath = "bench/golden.json"

func loadGolden() (golden, error) {
	var g golden
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		return g, err
	}
	return g, json.Unmarshal(b, &g)
}

// recordGolden runs one lap of every workload on the local backend and
// writes the digests.
func recordGolden(opt options) error {
	g := golden{Seed: 1, Sizes: fullSizes.name, Digests: make(map[string]string)}
	for _, w := range workloads() {
		r, err := runLap(lapConfig{w: w, sz: fullSizes, seed: g.Seed, root: opt.root, forceLocal: true})
		if err != nil {
			return err
		}
		if r.failed > 0 {
			return fmt.Errorf("%s: %d failed operations while recording golden: %v", w.name, r.failed, r.failures)
		}
		g.Digests[w.name] = r.digest
		opt.logf("%s: %s (%d cells, %d artifact bytes)", w.name, r.digest, r.cells, r.artifactBytes)
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}

// verifyLaps applies the cross-lap checks: every count must be equal across
// laps, and at the golden's seed and sizes the artifacts must match it.
// It returns the operations attempted and failed over all laps.
func verifyLaps(opt options, w workload, laps []*lapResult) (attempted, failed int, reasons []string) {
	for i, r := range laps {
		attempted += r.attempted
		failed += r.failed
		for _, f := range r.failures {
			reasons = append(reasons, fmt.Sprintf("lap %d: %s", i+1, f))
		}
	}
	first := laps[0]
	for i, r := range laps[1:] {
		same := r.cells == first.cells && r.sweeps == first.sweeps && r.cached == first.cached &&
			r.computed == first.computed && r.store.Puts == first.store.Puts && r.digest == first.digest
		attempted++
		if !same {
			failed++
			reasons = append(reasons, fmt.Sprintf("lap %d differs from lap 1: cells %d/%d cached %d/%d computed %d/%d puts %d/%d digest %.12s/%.12s",
				i+2, r.cells, first.cells, r.cached, first.cached, r.computed, first.computed,
				r.store.Puts, first.store.Puts, r.digest, first.digest))
		}
	}
	if g, err := loadGolden(); err == nil && g.Seed == opt.seed && g.Sizes == opt.sz.name {
		attempted++
		if want := g.Digests[w.name]; want != first.digest {
			failed++
			reasons = append(reasons, fmt.Sprintf("artifacts %.12s differ from golden %.12s", first.digest, want))
		}
	}
	return attempted, failed, reasons
}

// runWorkload runs one workload the way the flags ask: laps of fixed work
// reporting the end-to-end medians, or (traced) two plain laps, one lap with
// the bench's wrappers installed, and the probes, reporting the per-layer
// metrics.
func runWorkload(opt options, w workload) (report, error) {
	cfg := lapConfig{w: w, sz: opt.sz, seed: opt.seed, root: opt.root}
	opt.logf("workload %s seed %d sizes %s — %s", w.name, opt.seed, opt.sz.name, w.why)

	plainLaps := opt.laps
	if opt.trace {
		plainLaps = min(2, opt.laps)
	}
	laps, err := lapsFor(cfg, plainLaps, opt.logf)
	if err != nil {
		return report{}, err
	}
	rep := report{Metrics: make(map[string]metricValue)}
	all := laps
	if opt.trace {
		cfg.traced = true
		tl, err := lapsFor(cfg, 1, opt.logf)
		if err != nil {
			return report{}, err
		}
		all = append(append([]*lapResult(nil), laps...), tl...)
		layers := append(layerMetrics(opt, w, laps, tl[0]), runProbes(opt)...)
		printLayers(opt, w, tl[0], layers)
		for _, m := range layers {
			if m.listed {
				rep.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
			}
		}
		if err := writeSpans(filepath.Join(opt.outDir, "trace-"+w.name+".jsonl"), tl[0].spans); err != nil {
			return report{}, err
		}
		if err := writeLayers(filepath.Join(opt.outDir, "layers-"+w.name+".json"), opt, layers); err != nil {
			return report{}, err
		}
	} else {
		printEndToEnd(opt, w, laps)
		for _, m := range endToEnd {
			v, _ := quietMedian(samples(laps, m.name))
			rep.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
		}
	}

	var reasons []string
	rep.Attempted, rep.Failed, reasons = verifyLaps(opt, w, all)
	rep.Correct = rep.Failed == 0
	opt.logf("  operations: %d attempted, %d failed", rep.Attempted, rep.Failed)
	for _, r := range reasons {
		opt.logf("  FAILED: %s", r)
	}
	return rep, nil
}

// printEndToEnd prints every end-to-end median with its unit, how many of
// its samples were measured on a quiet host, the raw lap values and their
// (max−min)/median, plus the prober's sample counts.
func printEndToEnd(opt options, w workload, laps []*lapResult) {
	for _, m := range endToEnd {
		ss := samples(laps, m.name)
		v, kept := quietMedian(ss)
		vs := lapValues(laps, m.name)
		opt.logf("  %-18s %12.4f %-4s over %d of %d samples  laps %s  range/median %.1f%%  bound %.0f%%",
			m.name, v, m.unit, kept, len(ss), fmtVals(vs), 100*spread(vs), 100*m.bound)
	}
	var status, late []float64
	for _, r := range laps {
		status = append(status, r.statusMS...)
		late = append(late, r.lateMS...)
	}
	p95, ok := percentile(status, 0.95)
	lp95, _ := percentile(late, 0.95)
	note := ""
	if !ok {
		note = " (too few samples beyond it)"
	}
	opt.logf("  status reads: %d samples at %d Hz, pooled p50 %.3f ms, p95 %.3f ms%s, generator late p95 %.3f ms",
		len(status), w.probeHz, median(status), p95, note, lp95)
}

func fmtVals(vs []float64) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprintf("%.4g", v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// runAA runs two full sets back to back on this binary and compares every
// end-to-end median against its bound. The gaps are written to
// bench/out/aa.json; the ones measured on the reference host are in README.
func runAA(opt options, names []string) bool {
	type gapRow struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		Worse    float64 `json:"worse_share"` // how much worse B is than A, as a share of A
		Bound    float64 `json:"bound"`
		OK       bool    `json:"ok"`
	}
	var rows []gapRow
	ok := true
	medians := make([]map[string]map[string]float64, 2)
	for set := 0; set < 2; set++ {
		medians[set] = make(map[string]map[string]float64)
		for _, name := range names {
			w, err := workloadByName(name)
			if err != nil {
				fatalf("%v", err)
			}
			opt.logf("A/A set %d: %s", set+1, name)
			laps, err := lapsFor(lapConfig{w: w, sz: opt.sz, seed: opt.seed, root: opt.root}, opt.laps, opt.logf)
			if err != nil {
				fatalf("%v", err)
			}
			if _, failed, reasons := verifyLaps(opt, w, laps); failed > 0 {
				opt.logf("  FAILED: %v", reasons)
				ok = false
			}
			medians[set][name] = make(map[string]float64)
			for _, m := range endToEnd {
				medians[set][name][m.name], _ = quietMedian(samples(laps, m.name))
			}
		}
	}
	for _, name := range names {
		for _, m := range endToEnd {
			a, b := medians[0][name][m.name], medians[1][name][m.name]
			worse := ratio(b-a, a)
			if m.higher {
				worse = ratio(a-b, a)
			}
			row := gapRow{name, m.name, a, b, worse, m.bound, worse <= m.bound}
			ok = ok && row.OK
			rows = append(rows, row)
		}
	}
	opt.logf("%-11s %-18s %12s %12s %8s %6s", "workload", "metric", "set A", "set B", "worse", "bound")
	for _, r := range rows {
		flag := ""
		if !r.OK {
			flag = "  EXCEEDS BOUND"
		}
		opt.logf("%-11s %-18s %12.4f %12.4f %+7.1f%% %5.0f%%%s", r.Workload, r.Metric, r.A, r.B, 100*r.Worse, 100*r.Bound, flag)
	}
	if b, err := json.MarshalIndent(rows, "", "  "); err == nil {
		if err := os.MkdirAll(opt.outDir, 0o755); err == nil {
			os.WriteFile(filepath.Join(opt.outDir, "aa.json"), append(b, '\n'), 0o644)
		}
	}
	return ok
}
