package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/wire"
)

// transport is how a Worker reaches its coordinator, in the coordinator's
// terms: errUnknownWorker means re-register, errLeaseLost abandon the job,
// an error wrapping errRejected a refused upload; any other is transient.
// String names the coordinator in log lines.
type transport interface {
	register(ctx context.Context, name string, slots int) (registerResponse, error)
	lease(ctx context.Context, wid string, wait time.Duration) (*Job, error) // nil: none came
	beat(ctx context.Context, wid, jid string, rounds []fl.RoundStat) error
	upload(ctx context.Context, wid, jid string, hist *fl.History, runErr error, next bool) (resultResponse, error)
	deregister(ctx context.Context, wid string) error
	String() string
}

var errRejected = errors.New("dispatch: upload rejected")

// directTransport calls the Coordinator methods the HTTP handlers call after
// decoding, and encodes nothing.
type directTransport struct{ c *Coordinator }

func (d directTransport) register(_ context.Context, _ string, slots int) (registerResponse, error) {
	return d.c.register(slots), nil
}

func (d directTransport) lease(ctx context.Context, wid string, wait time.Duration) (*Job, error) {
	return d.c.lease(ctx, wid, wait)
}

func (d directTransport) beat(_ context.Context, wid, jid string, rounds []fl.RoundStat) error {
	return d.c.heartbeat(wid, jid, rounds)
}

func (d directTransport) upload(_ context.Context, wid, jid string, hist *fl.History, runErr error, next bool) (resultResponse, error) {
	ack, err := d.c.result(wid, jid, hist, runErr, next)
	if err != nil {
		return ack, fmt.Errorf("%w: %w", errRejected, err)
	}
	return ack, nil
}

func (d directTransport) deregister(_ context.Context, wid string) error {
	_, err := d.c.deregister(wid)
	return err
}

func (directTransport) String() string { return "the in-process coordinator" }

// httpTransport is the worker protocol over HTTP (docs/API.md), JSON
// throughout: heartbeat and result bodies are internal/wire's.
type httpTransport struct {
	base   string // coordinator base URL without trailing slashes
	client *http.Client
	logf   func(format string, args ...any)
}

func (h *httpTransport) String() string { return h.base }

func (h *httpTransport) register(ctx context.Context, name string, slots int) (registerResponse, error) {
	var resp registerResponse
	code, err := h.postJSON(ctx, h.base+"/v1/workers", registerRequest{Name: name, Slots: slots}, &resp)
	if err == nil && code != http.StatusCreated {
		err = fmt.Errorf("registration returned HTTP %d", code)
	}
	if err == nil {
		h.logf("dispatch: registered with %s as %s (lease TTL %v)", h.base, resp.ID, time.Duration(resp.LeaseTTL)*time.Millisecond)
	}
	return resp, err
}

func (h *httpTransport) lease(ctx context.Context, wid string, wait time.Duration) (*Job, error) {
	var resp leaseResponse
	code, err := h.postJSON(ctx, h.base+"/v1/workers/"+wid+"/lease", leaseRequest{WaitMS: wait.Milliseconds()}, &resp)
	switch {
	case err != nil:
		return nil, err
	case code == http.StatusOK:
		return &resp.Job, nil
	case code == http.StatusNoContent:
		return nil, nil
	}
	return nil, statusErr("lease", code)
}

func (h *httpTransport) beat(ctx context.Context, wid, jid string, rounds []fl.RoundStat) error {
	body, err := wire.EncodeStats(rounds)
	if err != nil {
		// A round JSON cannot carry (NaN, ±Inf) is not relayed, and the beat
		// still holds the lease; the upload fails the job with this error.
		h.logf("dispatch: job %.12s: progress not relayed: %v", jid, err)
		body = nil
	}
	code, err := h.do(ctx, http.MethodPost, fmt.Sprintf("%s/v1/workers/%s/jobs/%s/heartbeat", h.base, wid, jid), wire.ContentType, body, nil)
	if err != nil || code == http.StatusOK {
		return err
	}
	return statusErr("heartbeat", code)
}

// statusErr maps a lease or heartbeat answer back to the coordinator's error.
func statusErr(route string, code int) error {
	switch code {
	case http.StatusNotFound:
		return errUnknownWorker
	case http.StatusGone:
		return errLeaseLost
	}
	return fmt.Errorf("%s returned HTTP %d", route, code)
}

// upload retries transport errors and 5xx answers twice, with backoff.
func (h *httpTransport) upload(ctx context.Context, wid, jid string, hist *fl.History, runErr error, next bool) (resultResponse, error) {
	errMsg := ""
	if runErr != nil {
		errMsg = runErr.Error()
	}
	body := wire.EncodeResult(hist, errMsg)
	url := fmt.Sprintf("%s/v1/workers/%s/jobs/%s/result", h.base, wid, jid)
	if next {
		url += "?lease=1"
	}
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var ack resultResponse
		code, perr := h.do(ctx, http.MethodPost, url, wire.ContentType, body, &ack)
		switch {
		case perr != nil:
			err = perr
		case code >= 500:
			err = fmt.Errorf("result upload returned HTTP %d", code)
		case code >= 400:
			return resultResponse{}, fmt.Errorf("%w: HTTP %d", errRejected, code)
		default:
			return ack, nil
		}
		select {
		case <-ctx.Done():
			return resultResponse{}, err
		case <-time.After(200 * time.Millisecond << attempt):
		}
	}
	return resultResponse{}, err
}

func (h *httpTransport) deregister(ctx context.Context, wid string) error {
	if _, err := h.do(ctx, http.MethodDelete, h.base+"/v1/workers/"+wid, "", nil, nil); err != nil {
		return err
	}
	h.logf("dispatch: worker %s deregistered", wid)
	return nil
}

// postJSON posts body as JSON and decodes the response into out (when
// non-nil and the status is 2xx). It returns the status code; err covers
// transport-level failures only.
func (h *httpTransport) postJSON(ctx context.Context, url string, body, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	return h.do(ctx, http.MethodPost, url, "application/json", b, out)
}

// do sends one request; heartbeat and result bodies arrive pre-encoded by
// internal/wire.
func (h *httpTransport) do(ctx context.Context, method, url, contentType string, body []byte, out any) (int, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// 204 (empty lease poll) carries no body by definition; don't feed the
	// decoder an EOF.
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 && resp.StatusCode != http.StatusNoContent {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, fmt.Errorf("decoding %s response: %w", url, err)
		}
	}
	return resp.StatusCode, nil
}
