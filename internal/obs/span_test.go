package obs

import (
	"bufio"
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestTracerRingOverwrites(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Record(Span{Trace: "t", Name: string(rune('a' + i))})
	}
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("ring holds %d spans, want 3", len(spans))
	}
	// Oldest-first snapshot of the last three records: c, d, e.
	if spans[0].Name != "c" || spans[2].Name != "e" {
		t.Fatalf("ring order: %+v", spans)
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	l := tr.Start("t", "n") // must not panic
	l.WithRound(1).End()
	l.EndErr(nil)
	tr.Record(Span{})
	if tr.Spans() != nil {
		t.Fatal("nil tracer must hold nothing")
	}
}

func TestLiveSpanRecordsFields(t *testing.T) {
	tr := NewTracer(8)
	l := tr.Start("trace-1", "fl.round").WithRound(3)
	time.Sleep(time.Millisecond)
	l.End()
	spans := tr.Collect("trace-1")
	if len(spans) != 1 {
		t.Fatalf("collected %d spans, want 1", len(spans))
	}
	s := spans[0]
	if s.Name != "fl.round" || s.Round != 3 {
		t.Fatalf("span fields: %+v", s)
	}
	if s.DurMS <= 0 || s.Start == 0 {
		t.Fatalf("span timing not recorded: %+v", s)
	}
}

func TestTraceHandlerFiltersJSONL(t *testing.T) {
	tr := NewTracer(8)
	tr.Record(Span{Trace: "a", Name: "one"})
	tr.Record(Span{Trace: "b", Name: "two"})
	tr.Record(Span{Trace: "a", Name: "three"})

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/trace?trace=a", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/jsonl") {
		t.Fatalf("content type %q", ct)
	}
	var names []string
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var s Span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if s.Trace != "a" {
			t.Fatalf("filter leaked trace %q", s.Trace)
		}
		names = append(names, s.Name)
	}
	if len(names) != 2 || names[0] != "one" || names[1] != "three" {
		t.Fatalf("filtered spans: %v", names)
	}
}

// TestCollectOnWrappedRing: Collect runs once per completed cell against a
// ring that is normally full and wrapped. It must return exactly the trace's
// surviving spans, oldest first, and allocate for its matches only — not
// snapshot the ring to find them.
func TestCollectOnWrappedRing(t *testing.T) {
	tr := NewTracer(DefaultTraceCap)
	// Fill the ring one and a half times; every 512th span belongs to the
	// trace under test, so some of its spans have been overwritten and the
	// survivors straddle the wrap point.
	const total = DefaultTraceCap + DefaultTraceCap/2
	var want []int
	for i := 0; i < total; i++ {
		s := Span{Trace: "noise", Name: "fill", Round: i}
		if i%512 == 100 {
			s.Trace = "mine"
			if i >= total-DefaultTraceCap {
				want = append(want, i)
			}
		}
		tr.Record(s)
	}
	got := tr.Collect("mine")
	if len(got) != len(want) || len(want) < 2 {
		t.Fatalf("collected %d spans, want %d (≥ 2)", len(got), len(want))
	}
	for i, s := range got {
		if s.Round != want[i] {
			t.Fatalf("span %d is round %d, want %d (oldest first)", i, s.Round, want[i])
		}
	}
	if tr.Collect("absent") != nil {
		t.Fatal("a trace with no spans must collect to nil")
	}
	var nilTr *Tracer
	if nilTr.Collect("mine") != nil {
		t.Fatal("nil tracer must collect nothing")
	}

	// One match costs its own slice and nothing else: a snapshot of the ring
	// would be one more allocation — of 4096 spans.
	tr.Record(Span{Trace: "single", Name: "one"})
	if allocs := testing.AllocsPerRun(20, func() { tr.Collect("single") }); allocs > 3 {
		t.Fatalf("Collect of one match allocates %.0f times, want ≤ 3", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		tr.Collect("single")
	}
	runtime.ReadMemStats(&after)
	if perCall := (after.TotalAlloc - before.TotalAlloc) / runs; perCall > 1024 {
		t.Fatalf("Collect of one match allocates %d B per call, want ≤ 1 KiB (a ring snapshot is ≈ 384 KiB)", perCall)
	}
}
