package obs

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestWriteJSONEncodesBeforeWriting: a value json.Marshal rejects (a NaN in
// a diverged run's history) becomes a well-formed 500 with the API's error
// shape, never a 200 with a truncated body.
func TestWriteJSONEncodesBeforeWriting(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteJSON(rec, http.StatusOK, map[string]any{"history": []float64{0.5, math.NaN()}})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("NaN body answered %d, want 500", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body["error"] == "" {
		t.Fatalf("500 body is not the error shape: %q (%v)", rec.Body.String(), err)
	}

	rec = httptest.NewRecorder()
	HTTPError(rec, http.StatusBadRequest, "bad %s", "spec")
	if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Body.String() != "{\"error\":\"bad spec\"}\n" {
		t.Fatalf("HTTPError wrote %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
}
