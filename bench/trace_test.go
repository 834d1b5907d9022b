package main

import (
	"math"
	"testing"
	"time"
)

const msec = time.Millisecond

func sp(id, parent int, name string, start, end int, wait bool) span {
	return span{ID: id, Parent: parent, Name: name, Start: time.Duration(start) * msec, End: time.Duration(end) * msec, Wait: wait}
}

func TestUnionLen(t *testing.T) {
	iv := []interval{{5 * msec, 9 * msec}, {0, 3 * msec}, {2 * msec, 6 * msec}, {20 * msec, 20 * msec}, {30 * msec, 25 * msec}}
	if got := unionLen(iv); got != 9*msec {
		t.Errorf("unionLen = %v, want 9ms", got)
	}
	if got := unionLen(nil); got != 0 {
		t.Errorf("unionLen(nil) = %v", got)
	}
}

// Self time is the span minus what its direct children cover: overlapping
// children count once, a child is clipped to its parent, grandchildren only
// reduce their own parent.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		sp(1, 0, "runner", 0, 100, false),
		sp(2, 1, "sweep.env_build", 0, 10, false),
		sp(3, 1, "fl.run", 10, 90, false),
		sp(4, 3, "fl.rounds", 10, 50, false),
		sp(5, 3, "fl.rounds", 40, 80, false), // overlaps span 4 by 10
		sp(6, 1, "late", 95, 120, false),     // runs past its parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 5 * msec, // 100 − (10 + 80 + 5 clipped)
		2: 10 * msec,
		3: 10 * msec, // 80 − union(10..50, 40..80)=70
		4: 40 * msec,
		5: 40 * msec,
		6: 25 * msec,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

// Coverage is the share of the lap with a non-waiting span open; waiting
// spans (SSE stream, lease long-poll) never count.
func TestCoverage(t *testing.T) {
	spans := []span{
		sp(1, 0, "http.sweep_events", 0, 100, true),
		sp(2, 0, "http.sweep_submit", 10, 20, false),
		sp(3, 0, "runner", 20, 60, false),
		sp(4, 0, "runner", 50, 80, false),
		sp(5, 0, "runner", 90, 140, false), // clipped at the lap's end
		sp(6, 0, "warmup", -50, 5, false),  // clipped at the lap's start
	}
	got := coverage(spans, 0, 100*msec)
	want := (5.0 + 70 + 10) / 100 // 0..5, 10..80, 90..100
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
	if got := coverage(spans[:1], 0, 100*msec); got != 0 {
		t.Errorf("coverage of waiting only = %v, want 0", got)
	}
	if got := coverage(spans, 10*msec, 10*msec); got != 0 {
		t.Errorf("coverage of an empty lap = %v, want 0", got)
	}
}

func TestNameTotalsClips(t *testing.T) {
	spans := []span{sp(1, 0, "http.lease", -10, 30, true), sp(2, 0, "http.lease", 90, 130, true), sp(3, 0, "runner", 0, 50, false)}
	if got := nameTotals(spans, "http.lease", 0, 100*msec); got != 40*msec {
		t.Errorf("nameTotals = %v, want 40ms", got)
	}
}

func TestEndpointOf(t *testing.T) {
	for _, c := range []struct {
		method, path, name, cell string
		wait                     bool
	}{
		{"POST", "/v1/workers", "http.register", "", false},
		{"DELETE", "/v1/workers/w-1", "http.deregister", "", false},
		{"POST", "/v1/workers/w-1/lease", "http.lease", "", true},
		{"POST", "/v1/workers/w-1/jobs/abc/heartbeat", "http.heartbeat", "abc", true},
		{"POST", "/v1/workers/w-1/jobs/abc/result", "http.upload", "abc", false},
		{"POST", "/v1/sweeps", "http.sweep_submit", "", false},
		{"GET", "/v1/sweeps/abc", "http.sweep_status", "", true},
		{"GET", "/v1/sweeps/abc/result", "http.sweep_result", "", false},
		{"GET", "/v1/sweeps/abc/events", "http.sweep_events", "", true},
		{"GET", "/metrics", "http.other", "", false},
	} {
		name, cell, wait := endpointOf(c.method, c.path)
		if name != c.name || cell != c.cell || wait != c.wait {
			t.Errorf("endpointOf(%s %s) = %q, %q, %v; want %q, %q, %v", c.method, c.path, name, cell, wait, c.name, c.cell, c.wait)
		}
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	s := r.start("x", "", 0)
	s.end()
	r.add(span{Name: "y"})
	if s.id() != 0 {
		t.Errorf("nil recorder handed out span id %d", s.id())
	}
}

func TestRecorderDropsOpenSpans(t *testing.T) {
	r := newRecorder()
	done := r.start("done", "c", 0)
	r.start("open", "c", done.id()) // never ended
	done.end()
	r.add(span{Name: "added", Start: msec, End: 2 * msec})
	got := r.snapshot()
	if len(got) != 2 || got[0].Name != "done" || got[1].Name != "added" || got[1].ID != 3 {
		t.Errorf("snapshot = %+v", got)
	}
}
