package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"fedwcm/internal/obs"
	"fedwcm/internal/store"
	"fedwcm/internal/sweep"
)

// BenchmarkWarmSweep is the read path of a cached grid at the handler
// level: POST an 18-cell grid whose every cell is in the store, follow its
// event stream to "done", read /result. Each iteration then drops the
// sweep record, so the next POST starts a new one over the same cached
// cells instead of landing on the finished record.
func BenchmarkWarmSweep(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	sp := sweep.Spec{
		Methods: []string{"fedavg", "fedcm", "fedwcm"},
		Betas:   []float64{0.1, 0.6},
		IFs:     []float64{1, 0.1, 0.01},
		Effort:  0.1,
	}
	cells, err := sp.Expand()
	if err != nil || len(cells) != 18 {
		b.Fatalf("expand: %d cells, %v", len(cells), err)
	}
	for i, c := range cells {
		if err := st.Put(c.ID, resultGoldenHistory(c.Axes.Method, i)); err != nil {
			b.Fatal(err)
		}
	}
	cfg := Config{Store: st, Metrics: obs.NewRegistry(), Logf: func(string, ...any) {}}
	cfg.Executor = stubLocal(b, cfg, neverRun)
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body, err := json.Marshal(sp)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweeps", bytes.NewReader(body)))
		var sub sweepSummary
		if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil || rec.Code != http.StatusAccepted {
			b.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body)
		}
		events := &flushCounter{ResponseRecorder: httptest.NewRecorder()}
		s.ServeHTTP(events, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sub.ID+"/events", nil))
		rec = httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sweeps/"+sub.ID+"/result", nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("result: HTTP %d: %s", rec.Code, rec.Body)
		}
		s.mu.Lock()
		delete(s.sweeps, sub.ID)
		s.sweepOrder = s.sweepOrder[:0]
		s.mu.Unlock()
	}
}
