package dispatch

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/store"
)

// scrapeMetrics GETs /metrics from the harness mux and parses the text
// exposition into series → value ("name{labels}" keys, headers skipped).
func scrapeMetrics(t *testing.T, baseURL string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed exposition line %q", line)
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}

// TestCoordinatorMetricsEndToEnd drives the coordinator through every
// observable lease outcome with hand-driven workers — grant, expiry,
// requeue, duplicate upload, stored upload — then scrapes /metrics off the
// same mux and asserts each counter moved. Deterministic by construction:
// the "crashed" worker is simply one that stops calling.
func TestCoordinatorMetricsEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(64)
	root := t.TempDir()
	st, err := store.Open(root, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := newCoordHarness(t, CoordinatorConfig{
		Store:    st,
		LeaseTTL: 60 * time.Millisecond,
		Metrics:  reg,
		Tracer:   tracer,
	})
	// The harness mounts only the worker protocol; add the obs surface the
	// way fedserve does.
	obsMux := http.NewServeMux()
	obs.Mount(obsMux, reg, tracer, nil)
	obsTS := httptest.NewServer(obsMux)
	defer obsTS.Close()

	job := testJob(70)
	hd, err := h.coord.Submit(job, SubmitOpts{})
	if err != nil {
		t.Fatal(err)
	}

	// Worker A leases and crashes; the lease expires and the job requeues.
	crashed := h.register(1)
	if got := h.leaseUntil(crashed, 5*time.Second); got.ID != job.ID {
		t.Fatalf("leased %s, want %s", got.ID, job.ID)
	}
	survivor := h.register(1)
	if got := h.leaseUntil(survivor, 5*time.Second); got.ID != job.ID {
		t.Fatalf("survivor inherited %s, want %s", got.ID, job.ID)
	}
	if code := h.heartbeat(survivor, job.ID, nil); code != http.StatusOK {
		t.Fatalf("heartbeat: HTTP %d", code)
	}
	if code, ack := h.upload(survivor, job.ID, cannedHist(70), ""); code != http.StatusOK || ack.Status != "stored" {
		t.Fatalf("upload: HTTP %d %+v", code, ack)
	}
	// The crashed worker finishes late: a duplicate, acked idempotently.
	if code, ack := h.upload(crashed, job.ID, cannedHist(70), ""); code != http.StatusOK || ack.Status != "duplicate" {
		t.Fatalf("duplicate upload: HTTP %d %+v", code, ack)
	}
	if _, err := waitDone(t, hd); err != nil {
		t.Fatal(err)
	}

	m := scrapeMetrics(t, obsTS.URL)
	for series, min := range map[string]float64{
		"fedwcm_dispatch_lease_wait_seconds_count":          2, // initial grant + requeued grant
		"fedwcm_dispatch_lease_hold_seconds_count":          2, // expiry + upload
		"fedwcm_dispatch_lease_expiries_total":              1,
		"fedwcm_dispatch_requeues_total":                    1,
		"fedwcm_dispatch_duplicate_uploads_total":           1,
		`fedwcm_dispatch_uploads_total{status="stored"}`:    1,
		`fedwcm_dispatch_uploads_total{status="duplicate"}`: 1,
		"fedwcm_dispatch_heartbeat_gap_seconds_count":       1,
	} {
		if m[series] < min {
			t.Errorf("%s = %v, want >= %v", series, m[series], min)
		}
	}
	// The lease span timeline for the job must be in the tracer: one span
	// for the expired lease, one for the successful one.
	spans := tracer.Collect(job.ID)
	if len(spans) != 2 {
		t.Fatalf("lease spans for job: %d, want 2 (%+v)", len(spans), spans)
	}
	if spans[0].Err == "" || spans[1].Err != "" {
		t.Fatalf("span outcomes: first %q (want expiry), second %q (want clean)", spans[0].Err, spans[1].Err)
	}
	// The trace was appended to the store's span log, one line per span,
	// each naming the job.
	data, err := os.ReadFile(filepath.Join(root, "traces.jsonl"))
	if err != nil {
		t.Fatalf("persisted trace: %v", err)
	}
	if n := strings.Count(string(data), `"trace":"`+job.ID+`","name":"dispatch.lease"`); n != 2 {
		t.Fatalf("span log holds %d lease lines for the job, want 2:\n%s", n, data)
	}
}

// TestRemoteSweepSurfacesWorkerMetrics runs a small grid through two REAL
// workers (the same code path `fedserve -worker` runs) and asserts the
// worker-side and coordinator-side registries both surface nonzero lease
// and upload series.
func TestRemoteSweepSurfacesWorkerMetrics(t *testing.T) {
	coordReg := obs.NewRegistry()
	h := newCoordHarness(t, CoordinatorConfig{
		LeaseTTL: 500 * time.Millisecond,
		Metrics:  coordReg,
		Tracer:   obs.NewTracer(256),
	})
	obsMux := http.NewServeMux()
	obs.Mount(obsMux, coordReg, nil, nil)
	obsTS := httptest.NewServer(obsMux)
	defer obsTS.Close()

	workerReg := obs.NewRegistry()
	runner := func(ctx context.Context, job Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		hist := cannedHist(1)
		if onRound != nil {
			for _, s := range hist.Stats {
				onRound(s)
			}
		}
		return hist, nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator: h.ts.URL,
			Runner:      runner,
			Name:        "w" + strconv.Itoa(i),
			Slots:       1,
			PollWait:    200 * time.Millisecond,
			Logf:        t.Logf,
			Metrics:     workerReg, // both workers share one registry in-test
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() { defer wg.Done(); w.Run(ctx) }()
	}

	const jobs = 4
	handles := make([]Handle, 0, jobs)
	for i := 0; i < jobs; i++ {
		hd, err := h.coord.Submit(testJob(80+i), SubmitOpts{})
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, hd)
	}
	for _, hd := range handles {
		if _, err := waitDone(t, hd); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	wg.Wait()

	wm := registryValues(t, workerReg)
	if wm["fedwcm_worker_leases_total"] < jobs {
		t.Errorf("worker leases = %v, want >= %d", wm["fedwcm_worker_leases_total"], jobs)
	}
	if wm[`fedwcm_worker_uploads_total{status="stored"}`] < jobs {
		t.Errorf("worker stored uploads = %v, want >= %d", wm[`fedwcm_worker_uploads_total{status="stored"}`], jobs)
	}
	cm := scrapeMetrics(t, obsTS.URL)
	if cm[`fedwcm_dispatch_uploads_total{status="stored"}`] < jobs {
		t.Errorf("coordinator stored uploads = %v, want >= %d", cm[`fedwcm_dispatch_uploads_total{status="stored"}`], jobs)
	}
	if cm["fedwcm_dispatch_lease_wait_seconds_count"] < jobs {
		t.Errorf("lease grants = %v, want >= %d", cm["fedwcm_dispatch_lease_wait_seconds_count"], jobs)
	}
}

// registryValues renders a registry and parses it like a scrape, without
// the HTTP hop.
func registryValues(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if _, err := reg.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		out[name] = f
	}
	return out
}
