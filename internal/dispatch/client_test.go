package dispatch

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientBlockingSubmitRetriesAdmission429: serve's admission control
// answers 429 with an integer Retry-After. A blocking submit waits that long
// and retries — a sweep feeder against a quota'd server trickles in instead
// of failing cells; a fail-fast submit reports the queue as full.
func TestClientBlockingSubmitRetriesAdmission429(t *testing.T) {
	job := testJob(90)
	var posts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/v1/runs" {
			http.NotFound(w, req)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if posts.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "submission shed (tenant quota); retry after 1s"})
			return
		}
		w.WriteHeader(http.StatusAccepted)
		json.NewEncoder(w).Encode(runStatus{ID: job.ID, Status: runQueued})
	}))
	defer ts.Close()

	mk := func(base string) *Client {
		// A poll cadence the test never reaches: only Submit is under test.
		c, err := NewClient(ClientConfig{BaseURL: base, PollEvery: time.Hour, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		return c
	}

	if _, err := mk(ts.URL).Submit(job, SubmitOpts{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("fail-fast submit against a 429: %v, want ErrQueueFull", err)
	}

	posts.Store(0)
	start := time.Now()
	// The base URL as an operator types it (-remote http://host:8080/): the
	// trailing slash must not turn the POST into a redirected GET.
	h, err := mk(ts.URL+"/").Submit(job, SubmitOpts{Block: true})
	if err != nil {
		t.Fatalf("blocking submit against 429 then 202: %v", err)
	}
	if h.Job().ID != job.ID {
		t.Fatalf("handle for %.12s, want %.12s", h.Job().ID, job.ID)
	}
	if n := posts.Load(); n != 2 {
		t.Fatalf("server saw %d POSTs, want 2 (one shed, one accepted)", n)
	}
	// Retry-After: 1 is honoured, not the 200 ms fallback backoff.
	if waited := time.Since(start); waited < time.Second {
		t.Fatalf("retried after %v, want the server's Retry-After of 1s", waited)
	}
}
