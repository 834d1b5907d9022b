package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"

	"fedwcm/internal/dispatch"
)

// layerMetric is one per-layer number. listed metrics are the ones
// BENCHMARK.json names: a genuine measurement on every workload. The rest —
// trace timings of layers a workload may not run at all (no training on
// warm_reads, no lease on table_cold) — are printed and written to
// bench/out, but kept out of the driver's JSON, where a time that reads 0 on
// every run would look fabricated.
type layerMetric struct {
	name, unit string
	value      float64
	listed     bool
}

// benchJob builds an opaque job with the system's content-address contract
// (ID = SHA-256 of the spec bytes), for probes that need fingerprints.
func benchJob(i int) dispatch.Job {
	spec := fmt.Sprintf(`{"bench":"probe","cell":%d}`, i)
	sum := sha256.Sum256([]byte(spec))
	return dispatch.Job{ID: hex.EncodeToString(sum[:]), Spec: json.RawMessage(spec)}
}

// timedSpans returns the spans that began inside the timed part (the warm-up
// shares the lap's recorder).
func (r *lapResult) timedSpans() []span {
	var in []span
	for _, s := range r.spans {
		if s.Start >= r.lo && s.Start < r.hi {
			in = append(in, s)
		}
	}
	return in
}

// cellPath is one cell's spans on a traced lap.
type cellPath struct {
	submit, job, runner, flRun *span
	rounds                     []span
}

// layerMetrics derives the trace- and count-based per-layer metrics of one
// workload from its plain laps and its traced lap.
func layerMetrics(opt options, w workload, plain []*lapResult, t *lapResult) []layerMetric {
	var out []layerMetric
	add := func(name, unit string, v float64, listed bool) {
		out = append(out, layerMetric{name, unit, v, listed})
	}
	cells := float64(t.cells)
	wall := t.hi - t.lo

	in := t.timedSpans()
	paths := make(map[string]*cellPath)
	at := func(cell string) *cellPath {
		p := paths[cell]
		if p == nil {
			p = &cellPath{}
			paths[cell] = p
		}
		return p
	}
	for i := range in {
		s := &in[i]
		if s.Cell == "" {
			continue
		}
		switch s.Name {
		case "dispatch.submit":
			at(s.Cell).submit = s
		case "dispatch.job":
			at(s.Cell).job = s
		case "runner":
			at(s.Cell).runner = s
		case "fl.run":
			at(s.Cell).flRun = s
		case "fl.rounds":
			at(s.Cell).rounds = append(at(s.Cell).rounds, *s)
		}
	}

	// fl: the round loop, per cell.
	var runMS, roundMS, roundsPerCell, queueMS, completeMS []float64
	for _, p := range paths {
		if p.flRun != nil {
			runMS = append(runMS, ms(p.flRun.dur()))
		}
		if len(p.rounds) > 0 {
			total := 0
			for _, r := range p.rounds {
				total += r.N
				if r.N > 0 {
					roundMS = append(roundMS, ms(r.dur())/float64(r.N))
				}
			}
			roundsPerCell = append(roundsPerCell, float64(total))
		}
		if p.submit != nil && p.runner != nil {
			queueMS = append(queueMS, ms(p.runner.Start-p.submit.End))
		}
		if p.runner != nil && p.job != nil {
			completeMS = append(completeMS, ms(p.job.End-p.runner.End))
		}
	}
	add("fl.run_ms_per_cell_p50", "ms", median(runMS), false)
	add("fl.round_ms_p50", "ms", median(roundMS), false)
	add("fl.eval_ms_per_round", "ms", median(durationsMS(in, "fl.evaluate")), false)
	add("fl.rounds_per_cell", "count", median(roundsPerCell), true)
	add("sweep.env_build_ms_p50", "ms", median(durationsMS(in, "sweep.env_build")), false)
	add("sweep.env_builds_per_cell", "count", ratio(float64(t.envBuilds), cells), true)

	// dispatch: queueing, the worker protocol, the slots.
	add("dispatch.queue_wait_ms_p50", "ms", median(queueMS), false)
	add("dispatch.complete_ms_p50", "ms", median(completeMS), false)
	add("dispatch.submit_us_p50", "us", 1000*median(durationsMS(in, "dispatch.submit")), false)
	add("dispatch.lease_rtt_ms_p50", "ms", median(durationsMS(in, "http.lease")), false)
	add("dispatch.upload_rtt_ms_p50", "ms", median(durationsMS(in, "http.upload")), false)
	var workerCalls, uploadBytes float64
	for _, s := range in {
		switch s.Name {
		case "http.lease", "http.heartbeat", "http.upload":
			workerCalls++
		}
		if s.Name == "http.upload" {
			uploadBytes += float64(s.Bytes)
		}
	}
	add("dispatch.http_calls_per_cell", "count", ratio(workerCalls, cells), true)
	busy := nameTotals(t.spans, "runner", t.lo, t.hi) + nameTotals(t.spans, "http.upload", t.lo, t.hi)
	add("dispatch.slot_busy_share", "ratio", ratio(float64(busy), float64(wall)*float64(t.lanes)), true)
	add("dispatch.requeues", "count", t.counters["fedwcm_dispatch_requeues_total"], true)
	add("wal.records_per_cell", "count", ratio(t.counters["fedwcm_dispatch_wal_records_total"], cells), true)
	add("wire.upload_bytes_per_cell", "B", ratio(uploadBytes, cells), true)

	// store and sweep: what the cells cost the store, and what it saved.
	gets := float64(t.store.MemHits + t.store.DiskHits + t.store.Misses)
	add("store.puts_per_cell", "count", ratio(float64(t.store.Puts), cells), true)
	add("store.put_bytes_per_cell", "B", ratio(t.counters["fedwcm_store_put_bytes_total"], cells), true)
	add("store.mem_hit_ratio", "ratio", ratio(float64(t.store.MemHits), gets), true)
	add("store.disk_hits_per_cell", "count", ratio(float64(t.store.DiskHits), cells), true)
	add("sweep.store_hit_ratio", "ratio", ratio(float64(t.cached), cells), true)

	// serve: the public API as the clients saw it.
	add("serve.submit_ms_p50", "ms", median(durationsMS(in, "http.sweep_submit")), true)
	add("serve.result_ms_p50", "ms", median(durationsMS(in, "http.sweep_result")), true)
	var status, late []float64
	for _, r := range append(append([]*lapResult(nil), plain...), t) {
		status = append(status, r.statusMS...)
		late = append(late, r.lateMS...)
	}
	add("serve.status_p50_ms", "ms", median(status), true)
	p95, _ := percentile(status, 0.95)
	add("serve.status_p95_ms", "ms", p95, true)
	p95, _ = percentile(late, 0.95)
	add("bench.probe_late_p95_ms", "ms", p95, true)

	// Whole process and harness.
	add("process.peak_rss_mb", "MiB", peakRSSMB(), true)
	add("process.gc_cycles_per_cell", "count", ratio(float64(t.gcCycles), cells), true)
	add("host.spin_ms", "ms", t.spinMS, true)
	add("trace.coverage", "ratio", coverage(t.spans, t.lo, t.hi), true)
	add("trace.overhead_ratio", "ratio", ratio(ratio(cells, t.timedS), median(lapValues(plain, "cells_per_s"))), true)
	return out
}

// writeLayers saves every per-layer metric of a traced run — the ones kept
// out of the driver's JSON line included — beside the host they were
// measured on.
func writeLayers(path string, opt options, layers []layerMetric) error {
	out := struct {
		Host    hostBlock              `json:"host"`
		Seed    uint64                 `json:"seed"`
		Sizes   string                 `json:"sizes"`
		Metrics map[string]metricValue `json:"metrics"`
	}{hostInfo(opt.root), opt.seed, opt.sz.name, make(map[string]metricValue)}
	for _, m := range layers {
		out.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printLayers prints every per-layer metric by name with its unit, the
// per-span table of the traced lap and, where a coordinator ran, how its
// worker slots spent the lap.
func printLayers(opt options, w workload, t *lapResult, layers []layerMetric) {
	opt.logf("  per-layer metrics (* = in BENCHMARK.json):")
	for _, m := range layers {
		mark := " "
		if m.listed {
			mark = "*"
		}
		opt.logf("   %s %-30s %14.4f %s", mark, m.name, m.value, m.unit)
	}

	in := t.timedSpans()
	self := selfTimes(in)
	type row struct {
		n           int
		total, self time.Duration
		durs        []float64
	}
	rows := make(map[string]*row)
	for _, s := range in {
		r := rows[s.Name]
		if r == nil {
			r = &row{}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += self[s.ID]
		r.durs = append(r.durs, ms(s.dur()))
	}
	names := make([]string, 0, len(rows))
	for name := range rows {
		names = append(names, name)
	}
	sort.Strings(names)
	opt.logf("  traced lap spans (timed part %.1f ms, %d lanes):", ms(t.hi-t.lo), t.lanes)
	opt.logf("    %-20s %7s %12s %12s %10s", "span", "count", "total ms", "self ms", "p50 ms")
	for _, name := range names {
		r := rows[name]
		opt.logf("    %-20s %7d %12.1f %12.1f %10.3f", name, r.n, ms(r.total), ms(r.self), median(r.durs))
	}

	wall := t.hi - t.lo
	cov := coverage(t.spans, t.lo, t.hi)
	opt.logf("  unattributed remainder: %.1f ms of the lap wall (%.1f%%) had no non-waiting span open",
		(1-cov)*ms(wall), 100*(1-cov))
	if w.topo.kind != topoLocal {
		lane := float64(wall) * float64(t.lanes)
		lease := float64(nameTotals(t.spans, "http.lease", t.lo, t.hi)) / lane
		run := float64(nameTotals(t.spans, "runner", t.lo, t.hi)) / lane
		upload := float64(nameTotals(t.spans, "http.upload", t.lo, t.hi)) / lane
		opt.logf("  worker slots (%d × lap wall): lease %.1f%%  run %.1f%%  upload %.1f%%  between calls %.1f%%",
			t.lanes, 100*lease, 100*run, 100*upload, 100*(1-lease-run-upload))
	}
}
