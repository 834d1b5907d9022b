package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// remotePoll is the status-poll cadence while a remote sweep runs.
const remotePoll = 250 * time.Millisecond

// remoteOutage bounds how long a status poll keeps retrying a server it
// cannot reach: long enough for a coordinator to be restarted on the same
// address.
const remoteOutage = 30 * time.Second

var remoteHTTP = &http.Client{Timeout: 30 * time.Second}

// remoteSweepStatus is the part of GET /v1/sweeps/{id} a remote run reads.
type remoteSweepStatus struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
	Cells  []struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Error  string `json:"error"`
	} `json:"cells"`
}

// runRemote executes sp on the fedserve at base through its public sweep
// API: one POST /v1/sweeps, a status poll until the grid is terminal, then
// each finished cell's history from GET /v1/runs/{id}. The server resolves
// every cell against its own store and executor, and each row's status is
// what the result counts, so a server-side cache hit reads "cached" here.
// The poll survives a server restart: it retries a connection error every
// remotePoll for up to remoteOutage, and when the restarted server answers
// 404 — sweep records live in its memory — it posts the grid once more.
// The sweep id is the spec's fingerprint, so the new record has the same
// id, and the server joins its recovered jobs and reads its stored cells
// rather than computing them again. A second 404 is an error.
// Histories are read from st first and put into it after a fetch, when st is
// set. Like Engine.RunSweep it returns the result together with a non-nil
// error when any cell failed.
func runRemote(base string, sp sweep.Spec, st *store.Store) (*sweep.Result, error) {
	// "host:8080/" + "/v1/sweeps" is "//v1/sweeps": ServeMux answers 301 to
	// the cleaned path and http.Client replays a redirected POST as GET.
	base = strings.TrimRight(base, "/")
	cells, err := sp.Expand()
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	sub, code, err := remoteSubmit(base, sp.Name, body)
	if err != nil {
		return nil, err
	}
	// 200 answers a grid whose finished record the server already held:
	// nothing was computed for this request, so every row counts as cached.
	held := code == http.StatusOK

	var sum remoteSweepStatus
	var down time.Time // when the server stopped answering; zero while it answers
	for reposted := false; ; {
		sum = remoteSweepStatus{}
		code, err := remoteCall(http.MethodGet, base+"/v1/sweeps/"+sub.ID, nil, &sum)
		if ue := (*url.Error)(nil); errors.As(err, &ue) {
			if down.IsZero() {
				down = time.Now()
			}
			if time.Since(down) > remoteOutage {
				return nil, err
			}
			time.Sleep(remotePoll)
			continue
		}
		if err != nil {
			return nil, err
		}
		down = time.Time{}
		if code == http.StatusNotFound && !reposted {
			reposted = true
			if sub, _, err = remoteSubmit(base, sp.Name, body); err != nil {
				return nil, err
			}
			continue
		}
		if code != http.StatusOK {
			return nil, fmt.Errorf("experiments: polling sweep %.12s: HTTP %d: %s", sub.ID, code, sum.Error)
		}
		if sum.Status != dispatch.StatusRunning {
			break
		}
		time.Sleep(remotePoll)
	}

	if len(sum.Cells) != len(cells) {
		return nil, fmt.Errorf("experiments: server expanded sweep %.12s into %d cells, local expansion has %d",
			sub.ID, len(sum.Cells), len(cells))
	}
	results := make([]sweep.CellResult, len(cells))
	for i, row := range sum.Cells {
		if row.ID != cells[i].ID {
			// Both sides hash the same canonical bytes; a mismatch means
			// the server trained something other than the local grid.
			return nil, fmt.Errorf("experiments: server filed cell %d under %s, local expansion computed %s",
				i, row.ID, cells[i].ID)
		}
		results[i] = sweep.CellResult{Cell: cells[i], Status: row.Status, Err: row.Error}
		switch row.Status {
		case sweep.CellFailed:
			continue
		case dispatch.StatusDone:
			results[i].Status = sweep.CellComputed
			if held {
				results[i].Status = sweep.CellCached
			}
		case sweep.CellCached:
		default:
			return nil, fmt.Errorf("experiments: cell %.12s ended %q", row.ID, row.Status)
		}
		if results[i].Hist, err = remoteHistory(base, row.ID, st); err != nil {
			return nil, err
		}
	}
	res := sweep.NewResult(sp, results)
	if res.Failed > 0 {
		return res, fmt.Errorf("experiments: sweep %s: %d/%d cells failed on %s", sp.Name, res.Failed, len(cells), base)
	}
	return res, nil
}

// remoteSubmit posts the grid body to POST /v1/sweeps, retrying a 503 (a
// server shutting down for a restart) every remotePoll, and returns the
// sweep's record with the status code (200 for a grid the server already
// held finished, 202 otherwise).
func remoteSubmit(base, name string, body []byte) (remoteSweepStatus, int, error) {
	for {
		var sub remoteSweepStatus
		code, err := remoteCall(http.MethodPost, base+"/v1/sweeps", body, &sub)
		if err != nil {
			return sub, 0, err
		}
		switch code {
		case http.StatusOK, http.StatusAccepted:
			return sub, code, nil
		case http.StatusServiceUnavailable:
			time.Sleep(remotePoll)
		default:
			return sub, 0, fmt.Errorf("experiments: submitting sweep %s: HTTP %d: %s", name, code, sub.Error)
		}
	}
}

// remoteHistory returns cell id's history: from st when it holds it,
// otherwise from the server's run endpoint, then put into st.
func remoteHistory(base, id string, st *store.Store) (*fl.History, error) {
	if st != nil {
		if hist, ok, err := st.Get(id); err == nil && ok {
			return hist, nil
		}
	}
	var run struct {
		History *fl.History `json:"history"`
		Error   string      `json:"error"`
	}
	code, err := remoteCall(http.MethodGet, base+"/v1/runs/"+id, nil, &run)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("experiments: fetching cell %.12s: HTTP %d: %s", id, code, run.Error)
	}
	if run.History == nil {
		return nil, fmt.Errorf("experiments: cell %.12s finished with no history", id)
	}
	if st != nil {
		if err := st.Put(id, run.History); err != nil {
			return nil, err
		}
	}
	return run.History, nil
}

// remoteCall sends one JSON request and decodes the JSON response, error
// bodies included, into out, and returns the status code.
func remoteCall(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := remoteHTTP.Do(req)
	if err != nil {
		return 0, fmt.Errorf("experiments: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("experiments: decoding %s %s: HTTP %d: %w", method, url, resp.StatusCode, err)
	}
	return resp.StatusCode, nil
}
