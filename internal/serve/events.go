package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sync"

	"fedwcm/internal/obs"
)

// broadcaster is the replay log and live fan-out behind both SSE feeds
// (per-round progress of a run, per-cell completion of a sweep): every
// published event is kept for late joiners and offered to each current
// subscriber. Slow subscribers are skipped rather than blocking the
// publisher (the training loop, a cell watcher): SSE is a best-effort live
// feed, the status endpoints and the store are authoritative.
type broadcaster[T any] struct {
	mu   sync.Mutex
	log  []T
	subs map[chan T]struct{}
	done chan struct{} // closed by finish: nothing is published afterwards
}

func newBroadcaster[T any]() *broadcaster[T] {
	return &broadcaster[T]{subs: make(map[chan T]struct{}), done: make(chan struct{})}
}

func (b *broadcaster[T]) publish(ev T) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.log = append(b.log, ev)
	for ch := range b.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// finish marks the feed complete; the owner calls it exactly once, after its
// last publish.
func (b *broadcaster[T]) finish() { close(b.done) }

// events returns a copy of everything published so far.
func (b *broadcaster[T]) events() []T {
	b.mu.Lock()
	defer b.mu.Unlock()
	return slices.Clone(b.log)
}

// subscribe returns the events so far and a channel carrying every later
// one. The channel is buffered generously relative to event cadence; publish
// drops events for listeners that fall further behind than that.
func (b *broadcaster[T]) subscribe() (replay []T, ch chan T) {
	ch = make(chan T, 256)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.subs[ch] = struct{}{}
	return slices.Clone(b.log), ch
}

func (b *broadcaster[T]) unsubscribe(ch chan T) {
	b.mu.Lock()
	delete(b.subs, ch)
	b.mu.Unlock()
}

// stream hands b's events to emit: the replay, then live events until the
// feed finishes (draining what raced with the finish). It reports false when
// the client went away first, in which case the caller's terminal "done"
// event has nobody to go to.
func stream[T any](ctx context.Context, b *broadcaster[T], emit func(T)) bool {
	replay, ch := b.subscribe()
	defer b.unsubscribe(ch)
	for _, ev := range replay {
		emit(ev)
	}
	for {
		select {
		case ev := <-ch:
			emit(ev)
		case <-b.done:
			for {
				select {
				case ev := <-ch:
					emit(ev)
				default:
					return true
				}
			}
		case <-ctx.Done():
			return false
		}
	}
}

// serveSSE turns the response into a Server-Sent Events stream and runs body
// with its emit function; open counts the streams currently held.
func serveSSE(w http.ResponseWriter, open *obs.Gauge, body func(emit func(event string, v any))) {
	flusher, canFlush := w.(http.Flusher)
	if !canFlush {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
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
