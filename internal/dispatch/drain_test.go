package dispatch

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"fedwcm/internal/obs"
)

// crashTransport lets a test crash a worker without its cooperation: once
// dead, every request fails, heartbeats and deregistration included, so the
// coordinator sees silence and the lease reaper takes over. Cancelling the
// worker's context alone would deregister cleanly, which is a handover, not
// a crash.
type crashTransport struct{ dead atomic.Bool }

func (c *crashTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.dead.Load() {
		return nil, errors.New("worker crashed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDrainSurvivesCrashedAndJoiningWorkers drains a few hundred jobs
// through 4 HTTP workers of 2 slots each. At one third drained, 2 of them
// crash with their leases held and 2 new ones join. Every job still
// completes with its own artifact in the store, and the queue ends empty.
// The WAL variant first closes its coordinator with the whole queue
// journaled and reopens it on the same log and store: replay must re-enter
// every job before the drain starts.
func TestDrainSurvivesCrashedAndJoiningWorkers(t *testing.T) {
	for _, mode := range []string{"memory", "wal"} {
		t.Run(mode, func(t *testing.T) {
			const n, workers, slots, crashed, joined = 300, 4, 2, 2, 2
			durable := mode == "wal"
			jobs := make([]Job, n)
			for i := range jobs {
				jobs[i] = testJob(i)
			}
			reg := obs.NewRegistry()
			cfg := CoordinatorConfig{Store: tstore(t), LeaseTTL: 150 * time.Millisecond, Logf: t.Logf, Metrics: reg}
			if durable {
				cfg.WALPath = filepath.Join(t.TempDir(), "coord.wal")
				first, err := NewCoordinator(CoordinatorConfig{Store: cfg.Store, WALPath: cfg.WALPath, Logf: t.Logf})
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs {
					if _, err := first.Submit(j, SubmitOpts{}); err != nil {
						t.Fatal(err)
					}
				}
				// Close journals no completion, so the log is what a crash
				// leaves behind.
				first.Close()
			}
			h := newCoordHarness(t, cfg)
			if durable {
				if got := h.coord.Stats().Recovered; got != n {
					t.Fatalf("WAL replay re-entered %d of %d jobs", got, n)
				}
			}
			// On the WAL run each submit coalesces onto its recovered job.
			handles := make([]Handle, n)
			for i, j := range jobs {
				var err error
				if handles[i], err = h.coord.Submit(j, SubmitOpts{}); err != nil {
					t.Fatal(err)
				}
			}
			var drained atomic.Int64
			third := make(chan struct{})
			for _, hd := range handles {
				go func() {
					<-hd.Done()
					if drained.Add(1) == n/3 {
						close(third)
					}
				}()
			}

			// start runs a worker until the test ends and returns its crash.
			start := func(name string) (crash func()) {
				ct := &crashTransport{}
				w, err := NewWorker(WorkerConfig{
					Coordinator: h.ts.URL,
					Runner:      echoRunner(nil),
					Name:        name,
					Slots:       slots,
					PollWait:    200 * time.Millisecond,
					HTTPClient:  &http.Client{Transport: ct, Timeout: 10 * time.Second},
					Logf:        t.Logf,
					Metrics:     obs.NewRegistry(),
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				done := make(chan struct{})
				go func() { defer close(done); w.Run(ctx) }()
				t.Cleanup(func() { cancel(); <-done })
				return func() {
					ct.dead.Store(true) // first, so the cancelled worker cannot deregister
					cancel()
				}
			}
			var crashes []func()
			for i := 0; i < workers; i++ {
				if crash := start(fmt.Sprintf("w%d", i)); i < crashed {
					crashes = append(crashes, crash)
				}
			}
			select {
			case <-third:
			case <-time.After(10 * time.Second):
				t.Fatalf("%d of %d jobs drained before the crash point", drained.Load(), n)
			}
			for _, crash := range crashes {
				crash()
			}
			for i := 0; i < joined; i++ {
				start(fmt.Sprintf("late%d", i))
			}

			for i, hd := range handles {
				hist, err := waitDone(t, hd)
				if err != nil {
					t.Fatalf("job %d: %v", i, err)
				}
				if want := cannedHist(i).FinalAcc(); hist.FinalAcc() != want {
					t.Fatalf("job %d returned acc %v, want %v", i, hist.FinalAcc(), want)
				}
				if _, ok, err := h.store.Get(jobs[i].ID); err != nil || !ok {
					t.Fatalf("job %d artifact missing from store (err %v)", i, err)
				}
			}
			if s := h.coord.Stats(); s.Pending != 0 || s.Leased != 0 {
				t.Fatalf("queue after drain: %+v, want 0 pending and 0 leased", s)
			}
			// The crash stranded the victims' leases: only the reaper could
			// hand those jobs to a survivor.
			if registryValues(t, reg)["fedwcm_dispatch_lease_expiries_total"] == 0 {
				t.Fatal("no lease expired: the crashed workers held no job")
			}
		})
	}
}
