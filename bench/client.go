package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fedwcm/internal/sweep"
)

// sweepOutcome is what one POST → SSE done → /result round trip reports.
type sweepOutcome struct {
	ID       string
	Total    int // cells the server expanded the grid into
	Cached   int
	Computed int
	Failed   int
	Events   int // terminal "cell" events seen on the SSE stream
}

// resultBody is the part of the /result response the bench verifies.
type resultBody struct {
	ID       string `json:"id"`
	Status   string `json:"status"`
	Total    int    `json:"total"`
	Cached   int    `json:"cached"`
	Computed int    `json:"computed"`
	Failed   int    `json:"failed"`
}

// apiClient drives the public sweep API of one lap's server.
type apiClient struct {
	base string
	hc   *http.Client
	// onSubmit, when set, is told each sweep id as soon as the POST returns
	// (the status prober follows the sweep currently in flight).
	onSubmit func(id string)
	// onCell, when set, is told each terminal cell event as it is read.
	onCell func()
}

// runSweep submits the grid, follows its event stream to the terminal
// "done" event and reads the aggregated result.
func (c *apiClient) runSweep(ctx context.Context, spec sweep.Spec) (sweepOutcome, error) {
	var out sweepOutcome
	body, err := json.Marshal(spec)
	if err != nil {
		return out, err
	}
	var sub struct {
		ID    string `json:"id"`
		Total int    `json:"total"`
	}
	if err := c.do(ctx, http.MethodPost, "/v1/sweeps", body, &sub, http.StatusAccepted, http.StatusOK); err != nil {
		return out, err
	}
	out.ID = sub.ID
	if c.onSubmit != nil {
		c.onSubmit(sub.ID)
	}
	if out.Events, err = c.followEvents(ctx, sub.ID); err != nil {
		return out, err
	}
	var res resultBody
	if err := c.do(ctx, http.MethodGet, "/v1/sweeps/"+sub.ID+"/result", nil, &res, http.StatusOK); err != nil {
		return out, err
	}
	out.Total, out.Cached, out.Computed, out.Failed = res.Total, res.Cached, res.Computed, res.Failed
	if res.Total != sub.Total {
		return out, fmt.Errorf("sweep %.12s: result total %d, submit total %d", sub.ID, res.Total, sub.Total)
	}
	return out, nil
}

// do performs one JSON exchange and decodes the body into v; any status
// outside want is an error (a refused or failed request is a failed
// operation, never a sample).
func (c *apiClient) do(ctx context.Context, method, path string, body []byte, v any, want ...int) error {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	for _, code := range want {
		if resp.StatusCode == code {
			if v == nil {
				return nil
			}
			if err := json.Unmarshal(raw, v); err != nil {
				return fmt.Errorf("%s %s: decoding body: %w", method, path, err)
			}
			return nil
		}
	}
	return fmt.Errorf("%s %s: HTTP %d: %.200s", method, path, resp.StatusCode, raw)
}

// followEvents reads the sweep's SSE stream until the terminal "done"
// event and returns how many cell events it carried.
func (c *apiClient) followEvents(ctx context.Context, id string) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/sweeps/"+id+"/events", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET events: HTTP %d", resp.StatusCode)
	}
	cells := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == "event: cell":
			cells++
			if c.onCell != nil {
				c.onCell()
			}
		case line == "event: done":
			return cells, nil
		case strings.HasPrefix(line, "event: "):
			return cells, fmt.Errorf("sweep %.12s: unexpected SSE %q", id, line)
		}
	}
	if err := sc.Err(); err != nil {
		return cells, err
	}
	return cells, fmt.Errorf("sweep %.12s: event stream ended without done", id)
}

// prober is the open-loop status reader: one GET /v1/sweeps/{id} every
// period, each timed from the instant it was due, so a stall shows in every
// sample it delays. It follows whichever sweep was submitted last.
type prober struct {
	base   string
	hc     *http.Client
	period time.Duration

	current atomic.Pointer[string]

	stop chan struct{}
	wg   sync.WaitGroup

	latencyMS []float64 // due → body read
	lateMS    []float64 // due → request actually sent
	failed    int
}

func newProber(base string, hc *http.Client, hz int) *prober {
	return &prober{base: base, hc: hc, period: time.Second / time.Duration(hz), stop: make(chan struct{})}
}

func (p *prober) follow(id string) { p.current.Store(&id) }

func (p *prober) start() {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		begin := time.Now()
		for k := 0; ; k++ {
			due := begin.Add(time.Duration(k) * p.period)
			select {
			case <-p.stop:
				return
			case <-time.After(time.Until(due)):
			}
			id := p.current.Load()
			if id == nil {
				continue // nothing submitted yet
			}
			sent := time.Now()
			err := p.get(*id)
			p.lateMS = append(p.lateMS, ms(sent.Sub(due)))
			if err != nil {
				p.failed++
				continue
			}
			p.latencyMS = append(p.latencyMS, ms(time.Since(due)))
		}
	}()
}

// halt stops the generator and waits for the sample in flight.
func (p *prober) halt() {
	close(p.stop)
	p.wg.Wait()
}

func (p *prober) get(id string) error {
	resp, err := p.hc.Get(p.base + "/v1/sweeps/" + id)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET status: HTTP %d", resp.StatusCode)
	}
	return nil
}
