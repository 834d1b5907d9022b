package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fedwcm/internal/dispatch"
	"fedwcm/internal/fl"
	"fedwcm/internal/fl/methods"
	"fedwcm/internal/sweep"
)

// span is one traced interval at a layer boundary. Times are offsets from
// the recorder's origin. Spans of one cell share its fingerprint. Wait marks
// intervals in which nothing is being done for the result (a long-polling
// lease, an SSE stream, the envelope from submit to completion): they are
// kept for the timeline but never count as attributed time.
type span struct {
	ID     int           `json:"id"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // 0 = the lap's root span
	Cell   string        `json:"cell,omitempty"`
	Wait   bool          `json:"wait,omitempty"`
	N      int           `json:"n,omitempty"`     // rounds covered (fl.rounds)
	Bytes  int64         `json:"bytes,omitempty"` // request+response body bytes (http.*)
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the lap ends. A nil recorder records
// nothing, so untraced laps run the same call sites without branches.
type recorder struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// liveSpan is an open span; end closes and stores it.
type liveSpan struct {
	r *recorder
	s span
}

func (r *recorder) start(name, cell string, parent int) *liveSpan {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id}) // reserve the id; end fills the slot
	r.mu.Unlock()
	return &liveSpan{r: r, s: span{ID: id, Name: name, Cell: cell, Parent: parent, Start: time.Since(r.origin)}}
}

func (l *liveSpan) id() int {
	if l == nil {
		return 0
	}
	return l.s.ID
}

func (l *liveSpan) end() {
	if l == nil {
		return
	}
	l.s.End = time.Since(l.r.origin)
	l.r.mu.Lock()
	l.r.spans[l.s.ID-1] = l.s
	l.r.mu.Unlock()
}

// add stores an already measured interval.
func (r *recorder) add(s span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// snapshot returns the closed spans (a span still open when the lap ended
// has no name and is dropped).
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.Name != "" {
			out = append(out, s)
		}
	}
	return out
}

// writeSpans writes one span per line (JSONL).
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [lo, hi) stretch of the lap.
type interval struct{ lo, hi time.Duration }

// unionLen is the total length covered by the intervals, counting
// overlapping stretches once.
func unionLen(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].lo < iv[j].lo })
	var total, end time.Duration
	started := false
	for _, v := range iv {
		if v.hi <= v.lo {
			continue
		}
		switch {
		case !started || v.lo > end:
			total += v.hi - v.lo
			end = v.hi
			started = true
		case v.hi > end:
			total += v.hi - end
			end = v.hi
		}
	}
	return total
}

// clip restricts s to [lo, hi).
func clip(s span, lo, hi time.Duration) interval {
	return interval{max(s.Start, lo), min(s.End, hi)}
}

// selfTimes returns, per span id, the span's duration minus the part of it
// its direct children cover (children clipped to the parent, overlapping
// children counted once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]interval)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			kids[p.ID] = append(kids[p.ID], clip(s, p.Start, p.End))
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(kids[s.ID])
	}
	return out
}

// coverage is the share of [lo, hi) during which at least one non-waiting
// span was open: 1 − coverage is the lap time no traced layer accounts for.
func coverage(spans []span, lo, hi time.Duration) float64 {
	if hi <= lo {
		return 0
	}
	var iv []interval
	for _, s := range spans {
		if !s.Wait {
			iv = append(iv, clip(s, lo, hi))
		}
	}
	return float64(unionLen(iv)) / float64(hi-lo)
}

// nameTotals sums the duration, clipped to [lo, hi), of every span called
// name. Lane shares (lease / run / upload per worker slot) are these sums
// over slots × lap wall, since one slot never has two such spans open.
func nameTotals(spans []span, name string, lo, hi time.Duration) time.Duration {
	var total time.Duration
	for _, s := range spans {
		if s.Name == name {
			if c := clip(s, lo, hi); c.hi > c.lo {
				total += c.hi - c.lo
			}
		}
	}
	return total
}

// durationsMS lists the durations of every span called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// --- wrappers installed on a traced lap -------------------------------------

// tracedRunner wraps real training: it is sweep.DispatchRunner's body
// (decode, BuildEnvCached, RunCtx) with a span around each call, a timestamp
// on every recorded round, and one extra evaluation timed on its own.
func tracedRunner(rec *recorder, envs *sweep.EnvCache) dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		run := rec.start("runner", job.ID, 0)
		defer run.end()
		var spec sweep.RunSpec
		if err := json.Unmarshal(job.Spec, &spec); err != nil {
			return nil, fmt.Errorf("bench: decoding dispatched spec: %w", err)
		}
		spec = spec.Defaults()
		eb := rec.start("sweep.env_build", job.ID, run.id())
		env, err := spec.BuildEnvCached(envs)
		eb.end()
		if err != nil {
			return nil, err
		}
		m, err := methods.New(spec.Method)
		if err != nil {
			return nil, err
		}
		fr := rec.start("fl.run", job.ID, run.id())
		last, lastRound := time.Since(rec.origin), 0
		hist, err := fl.RunWithProgressCtx(ctx, env, m, func(st fl.RoundStat) {
			now := time.Since(rec.origin)
			rec.add(span{Name: "fl.rounds", Cell: job.ID, Parent: fr.id(), Start: last, End: now, N: st.Round - lastRound})
			last, lastRound = now, st.Round
			if onRound != nil {
				onRound(st)
			}
		})
		fr.end()
		if err != nil {
			return hist, err
		}
		// The engine reports a round only when it evaluates, so an evaluation
		// cannot be told from the rounds around it by timestamps. Price one
		// here instead: the same call, on this cell's model and test set,
		// under this lap's load.
		net := env.Build(spec.Cfg.Seed)
		ev := rec.start("fl.evaluate", job.ID, run.id())
		fl.Evaluate(net, env.Test, 256)
		ev.end()
		return hist, nil
	}
}

// tracedCanned wraps a runner that does no training (ctl_drain's no-op).
func tracedCanned(rec *recorder, inner dispatch.Runner) dispatch.Runner {
	return func(ctx context.Context, job dispatch.Job, onRound func(fl.RoundStat)) (*fl.History, error) {
		run := rec.start("runner", job.ID, 0)
		defer run.end()
		return inner(ctx, job, onRound)
	}
}

// tracedExec records dispatch.submit (the Submit call) and dispatch.job (the
// waiting envelope from accepted submission to Handle.Done) per cell.
type tracedExec struct {
	inner dispatch.Executor
	rec   *recorder
	wg    sync.WaitGroup // one watcher per submitted job
}

func (t *tracedExec) Submit(job dispatch.Job, opts dispatch.SubmitOpts) (dispatch.Handle, error) {
	sub := t.rec.start("dispatch.submit", job.ID, 0)
	h, err := t.inner.Submit(job, opts)
	sub.end()
	if err != nil {
		return nil, err
	}
	accepted := time.Since(t.rec.origin)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		<-h.Done() // every handle completes: Close fails whatever is left
		t.rec.add(span{Name: "dispatch.job", Cell: job.ID, Wait: true, Start: accepted, End: time.Since(t.rec.origin)})
	}()
	return h, nil
}

func (t *tracedExec) Close() {
	t.inner.Close()
	t.wg.Wait()
}

// tracedCoord is tracedExec over a Coordinator: serve finds the worker
// endpoints and the control-plane snapshot through these two methods.
type tracedCoord struct {
	*tracedExec
	coord *dispatch.Coordinator
}

func (t tracedCoord) Mount(mux *http.ServeMux)         { t.coord.Mount(mux) }
func (t tracedCoord) Stats() dispatch.CoordinatorStats { return t.coord.Stats() }

// tracedTransport records one span per HTTP exchange, from the request
// leaving to the response body being closed, named after the endpoint.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

// endpointOf maps a request to a stable endpoint name, the job fingerprint
// when the path carries one, and whether the exchange is pure waiting.
func endpointOf(method, path string) (name, cell string, wait bool) {
	parts := strings.Split(strings.Trim(path, "/"), "/")
	switch {
	case len(parts) >= 2 && parts[1] == "workers":
		switch {
		case len(parts) == 2:
			return "http.register", "", false
		case len(parts) == 3:
			return "http.deregister", "", false
		case parts[len(parts)-1] == "lease":
			return "http.lease", "", true // long-polls while the queue is empty
		case len(parts) == 6 && parts[5] == "heartbeat":
			return "http.heartbeat", parts[4], true // beside the run, not in its way
		case len(parts) == 6 && parts[5] == "result":
			return "http.upload", parts[4], false
		}
	case len(parts) >= 2 && parts[1] == "sweeps":
		switch {
		case len(parts) == 2:
			return "http.sweep_submit", "", false
		case len(parts) == 3:
			return "http.sweep_status", "", true // the prober; not on the sweep's path
		case parts[3] == "result":
			return "http.sweep_result", "", false
		case parts[3] == "events":
			return "http.sweep_events", "", true
		}
	}
	return "http.other", "", false
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name, cell, wait := endpointOf(req.Method, req.URL.Path)
	s := span{Name: name, Cell: cell, Wait: wait, Start: time.Since(t.rec.origin), Bytes: max(req.ContentLength, 0)}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		s.End = time.Since(t.rec.origin)
		t.rec.add(s)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: t, s: s}
	return resp, nil
}

// tracedBody closes the exchange's span when the caller closes the body.
type tracedBody struct {
	io.ReadCloser
	t    *tracedTransport
	s    span
	once sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.s.Bytes += int64(n)
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = time.Since(b.t.rec.origin)
		b.t.rec.add(b.s)
	})
	return err
}
