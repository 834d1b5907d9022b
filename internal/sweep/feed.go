package sweep

import (
	"context"
	"slices"
	"sync"
)

// Feed is the replay log and live fan-out behind every progress stream
// (per-round progress of a live cell, per-cell completion of a served
// sweep): every published event is kept for late joiners and offered to
// each current subscriber. Slow subscribers are skipped rather than
// blocking the publisher (the training loop, a cell's completion): a feed
// is a best-effort live view, status queries and the store are
// authoritative.
type Feed[T any] struct {
	mu   sync.Mutex
	log  []T
	subs map[chan T]struct{}
	done chan struct{} // closed by Finish: nothing is published afterwards
}

func NewFeed[T any]() *Feed[T] {
	return &Feed[T]{subs: make(map[chan T]struct{}), done: make(chan struct{})}
}

func (f *Feed[T]) Publish(ev T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, ev)
	for ch := range f.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Finish marks the feed complete; the owner calls it exactly once, after its
// last Publish.
func (f *Feed[T]) Finish() { close(f.done) }

// Done is closed once the feed is finished.
func (f *Feed[T]) Done() <-chan struct{} { return f.done }

// Events returns a copy of everything published so far.
func (f *Feed[T]) Events() []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.log)
}

// Stream hands the feed's events to emit: the replay, then live events until
// the feed finishes (draining what raced with the finish). It reports false
// when ctx ended first, in which case the caller's terminal event has nobody
// to go to. The subscription is buffered generously relative to event
// cadence; Publish drops events for a listener that falls further behind
// than that.
func (f *Feed[T]) Stream(ctx context.Context, emit func(T)) bool {
	ch := make(chan T, 256)
	f.mu.Lock()
	f.subs[ch] = struct{}{}
	replay := slices.Clone(f.log)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.subs, ch)
		f.mu.Unlock()
	}()
	for _, ev := range replay {
		emit(ev)
	}
	for {
		select {
		case ev := <-ch:
			emit(ev)
		case <-f.done:
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
