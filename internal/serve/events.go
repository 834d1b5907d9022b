package serve

import (
	"encoding/json"
	"net/http"

	"fedwcm/internal/obs"
)

// serveSSE turns the response into a Server-Sent Events stream and runs body
// with the stream's two verbs: emit frames one event into the response's
// buffer, flush sends what has been framed (one write on the connection), so
// a body that emits a batch and flushes once costs one write however many
// events the batch holds. open counts the streams currently held.
func serveSSE(w http.ResponseWriter, open *obs.Gauge, body func(emit func(event string, v any), flush func())) {
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
	var frame []byte // one event at a time, reused
	body(func(event string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return // never send an event with an empty payload
		}
		frame = append(frame[:0], "event: "...)
		frame = append(frame, event...)
		frame = append(frame, "\ndata: "...)
		frame = append(frame, b...)
		frame = append(frame, "\n\n"...)
		w.Write(frame)
	}, flusher.Flush)
}
