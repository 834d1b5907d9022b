package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"fedwcm/internal/obs"
)

// serveSSE turns the response into a Server-Sent Events stream and runs body
// with its emit function; open counts the streams currently held.
func serveSSE(w http.ResponseWriter, open *obs.Gauge, body func(emit func(event string, v any))) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		obs.HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	open.Inc()
	defer open.Dec()
	body(func(event string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return // never send an event with an empty payload
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, b)
		flusher.Flush()
	})
}
