package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/wire"
)

// ClientConfig wires a Client.
type ClientConfig struct {
	BaseURL string // required: fedserve base URL, e.g. http://host:8080
	// PollEvery is the status-poll cadence while a submitted run executes.
	// 0 = 250ms.
	PollEvery  time.Duration
	HTTPClient *http.Client
	// Logf defaults to the unified slog route (obs.Logf("dispatch")).
	Logf func(format string, args ...any)
}

// Client is the push-side remote backend: jobs are submitted to a running
// fedserve over the public run API (POST /v1/runs) and polled to
// completion. It is what fedbench -remote uses, so an experiment grid can
// execute against a shared server — which may itself be local-pool or
// coordinator backed — instead of inside the CLI process. Content
// addressing survives the hop: the server files the run under the same
// fingerprint the client computed, and cached cells return immediately.
type Client struct {
	cfg    ClientConfig
	ctx    context.Context
	cancel context.CancelFunc
}

// Run-status strings of the serve API (mirrored here: serve imports
// dispatch, so dispatch cannot import serve's constants).
const (
	runQueued  = "queued"
	runRunning = "running"
	runDone    = "done"
	runFailed  = "failed"
	runCached  = "cached"
)

// runStatus mirrors serve's runResponse wire shape.
type runStatus struct {
	ID       string         `json:"id"`
	Status   string         `json:"status"`
	Progress []fl.RoundStat `json:"progress,omitempty"`
	History  *fl.History    `json:"history,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// NewClient returns a client executor for the server at cfg.BaseURL.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("dispatch: ClientConfig.BaseURL is required")
	}
	// "host:8080/" + "/v1/runs" is "//v1/runs": ServeMux answers 301 to the
	// cleaned path and http.Client replays a redirected POST as GET.
	cfg.BaseURL = strings.TrimRight(cfg.BaseURL, "/")
	if cfg.PollEvery <= 0 {
		cfg.PollEvery = 250 * time.Millisecond
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if cfg.Logf == nil {
		cfg.Logf = obs.Logf("dispatch")
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Client{cfg: cfg, ctx: ctx, cancel: cancel}, nil
}

// Submit posts the job's spec to the server. A cached response completes
// the handle immediately; an accepted one is polled to completion on a
// background goroutine. A refusal for load — 503 (full server queue) or 429
// (admission control: tenant quota, pending cap) — returns ErrQueueFull, or
// under opts.Block waits and retries: the server's Retry-After when it sent
// one, an escalating backoff otherwise.
func (c *Client) Submit(job Job, opts SubmitOpts) (Handle, error) {
	backoff := 200 * time.Millisecond
	for {
		select {
		case <-c.ctx.Done():
			return nil, ErrClosed
		default:
		}
		code, retryAfter, rs, err := c.post(job)
		switch {
		case err != nil:
			return nil, err
		case code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests:
			if !opts.Block {
				return nil, ErrQueueFull
			}
			wait := retryAfter
			if wait <= 0 {
				wait = backoff
				if backoff < 5*time.Second {
					backoff *= 2
				}
			}
			select {
			case <-c.ctx.Done():
				return nil, ErrClosed
			case <-time.After(wait):
			}
			continue
		case code != http.StatusOK && code != http.StatusAccepted:
			return nil, fmt.Errorf("dispatch: submitting job %.12s: HTTP %d: %s", job.ID, code, rs.Error)
		}
		if rs.ID != job.ID {
			// Both sides hash the same canonical bytes; a mismatch means the
			// server would file the artifact somewhere this client will
			// never look.
			return nil, fmt.Errorf("dispatch: server filed job under %.12s, client computed %.12s", rs.ID, job.ID)
		}
		h := newHandle(job)
		if rs.Status == runCached && rs.History != nil {
			h.complete(rs.History, nil)
			return h, nil
		}
		go c.poll(h, opts)
		return h, nil
	}
}

// post submits the job once, returning the status code, the server's
// Retry-After (integer seconds; 0 when absent or malformed) and the decoded
// body.
func (c *Client) post(job Job) (int, time.Duration, runStatus, error) {
	req, err := http.NewRequestWithContext(c.ctx, http.MethodPost, c.cfg.BaseURL+"/v1/runs", bytes.NewReader(job.Spec))
	if err != nil {
		return 0, 0, runStatus{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", wire.ContentType)
	req.Header.Set(obs.TraceHeader, job.ID)
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return 0, 0, runStatus{}, fmt.Errorf("dispatch: submitting job %.12s: %w", job.ID, err)
	}
	defer resp.Body.Close()
	var retryAfter time.Duration
	if secs, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && secs > 0 {
		retryAfter = time.Duration(secs) * time.Second
	}
	rs, err := decodeRunStatus(resp)
	if err != nil {
		return resp.StatusCode, 0, runStatus{}, fmt.Errorf("dispatch: decoding submit response: %w", err)
	}
	return resp.StatusCode, retryAfter, rs, nil
}

// decodeRunStatus reads a run status body in whichever encoding the server
// chose: the binary wire codec when it honoured our Accept header, JSON
// otherwise (older servers, and every error body — those always stay JSON).
func decodeRunStatus(resp *http.Response) (runStatus, error) {
	if strings.HasPrefix(resp.Header.Get("Content-Type"), wire.ContentType) {
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return runStatus{}, err
		}
		rs, err := wire.DecodeRunStatus(body)
		if err != nil {
			return runStatus{}, err
		}
		return runStatus{ID: rs.ID, Status: rs.Status, Progress: rs.Progress, History: rs.History, Error: rs.Error}, nil
	}
	var rs runStatus
	err := json.NewDecoder(resp.Body).Decode(&rs)
	return rs, err
}

// poll drives the handle to completion off the status endpoint, relaying
// progress rounds it has not seen before.
func (c *Client) poll(h *handle, opts SubmitOpts) {
	url := c.cfg.BaseURL + "/v1/runs/" + h.job.ID
	started := false
	seen := 0
	t := time.NewTicker(c.cfg.PollEvery)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			h.complete(nil, ErrClosed)
			return
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(c.ctx, http.MethodGet, url, nil)
		if err != nil {
			h.complete(nil, err)
			return
		}
		req.Header.Set("Accept", wire.ContentType)
		resp, err := c.cfg.HTTPClient.Do(req)
		if err != nil {
			if c.ctx.Err() != nil {
				h.complete(nil, ErrClosed)
				return
			}
			c.cfg.Logf("dispatch: polling job %.12s: %v", h.job.ID, err)
			continue // transient; next tick retries
		}
		rs, derr := decodeRunStatus(resp)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			// The server forgot the run (restart with a wiped store): the
			// job will never finish there, so fail the handle instead of
			// polling an error page forever.
			h.complete(nil, fmt.Errorf("dispatch: job %.12s vanished server-side: %s", h.job.ID, rs.Error))
			return
		}
		if derr != nil || resp.StatusCode != http.StatusOK {
			c.cfg.Logf("dispatch: polling job %.12s: HTTP %d (decode: %v)", h.job.ID, resp.StatusCode, derr)
			continue // transient (5xx, truncated body); next tick retries
		}
		if !started && (rs.Status == runRunning || rs.Status == runDone || rs.Status == runCached) {
			started = true
			if opts.OnStart != nil {
				opts.OnStart()
			}
		}
		if opts.OnRound != nil {
			for ; seen < len(rs.Progress); seen++ {
				opts.OnRound(rs.Progress[seen])
			}
		}
		switch rs.Status {
		case runDone, runCached:
			if rs.History == nil {
				h.complete(nil, fmt.Errorf("dispatch: job %.12s finished with no history", h.job.ID))
				return
			}
			if opts.OnRound != nil {
				// The terminal response carries history instead of progress
				// (the server omits progress once the history exists); replay
				// whatever the polls had not relayed yet so consumers see
				// every round exactly once.
				for ; seen < len(rs.History.Stats); seen++ {
					opts.OnRound(rs.History.Stats[seen])
				}
			}
			h.complete(rs.History, nil)
			return
		case runFailed:
			h.complete(nil, fmt.Errorf("dispatch: job %.12s failed remotely: %s", h.job.ID, rs.Error))
			return
		}
	}
}

// Close aborts in-flight polls; their handles complete with ErrClosed.
func (c *Client) Close() { c.cancel() }

var _ Executor = (*Client)(nil)
