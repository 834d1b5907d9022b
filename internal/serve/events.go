package serve

import (
	"bytes"
	"encoding/json"
	"net/http"

	"fedwcm/internal/obs"
)

// serveSSE turns the response into a Server-Sent Events stream and runs body
// with the stream's two verbs: emit frames one event into the response's
// buffer, flush sends what has been framed (one write on the connection), so
// a body that emits a batch and flushes once costs one write however many
// events the batch holds.
func serveSSE(w http.ResponseWriter, body func(emit func(event string, v any), flush func())) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		obs.HTTPError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// One event at a time, encoded straight into the reused frame: Encode
	// writes nothing on failure and ends the payload with one newline.
	var frame bytes.Buffer
	enc := json.NewEncoder(&frame)
	body(func(event string, v any) {
		frame.Reset()
		frame.WriteString("event: ")
		frame.WriteString(event)
		frame.WriteString("\ndata: ")
		if enc.Encode(v) != nil {
			return // never send an event with an empty payload
		}
		frame.WriteByte('\n')
		w.Write(frame.Bytes())
	}, flusher.Flush)
}
