package dispatch

import (
	"context"
	"slices"
	"sync"
)

// Feed is the append-only log behind every progress stream (a job's
// per-round progress, which its Handle carries; per-cell completion of a
// served sweep). A subscriber is a cursor into the log: it reads what it has
// not seen yet, in batches, so it never misses an event however slowly it
// reads, and a late joiner's replay is simply its first batch. A publisher
// (the coordinator's relay, a cell's completion) never blocks: it appends
// and nudges the subscribers.
type Feed[T any] struct {
	mu   sync.Mutex
	log  []T
	subs map[chan struct{}]struct{} // one wake channel per Stream call; made by the first
	done chan struct{}              // closed by Finish: nothing is published afterwards
}

func NewFeed[T any]() *Feed[T] {
	return &Feed[T]{done: make(chan struct{})}
}

func (f *Feed[T]) Publish(ev T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, ev)
	f.wakeLocked()
}

// publishAll appends a run of events at once. An empty log adopts evs
// itself, capped so that a later append copies instead of writing into the
// caller's array: the backfill of a job no heartbeat reported on costs no
// copy of its history. The caller must not modify evs afterwards.
func (f *Feed[T]) publishAll(evs []T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.log) == 0 {
		f.log = evs[:len(evs):len(evs)]
	} else {
		f.log = append(f.log, evs...)
	}
	f.wakeLocked()
}

func (f *Feed[T]) wakeLocked() {
	for wake := range f.subs {
		select {
		case wake <- struct{}{}:
		default: // already told there is something to read
		}
	}
}

// Finish marks the feed complete; the owner calls it exactly once, after its
// last Publish. A Handle's feed is finished by the job's completion.
func (f *Feed[T]) Finish() { close(f.done) }

// Done is closed once the feed is finished.
func (f *Feed[T]) Done() <-chan struct{} { return f.done }

// Events returns a copy of everything published so far.
func (f *Feed[T]) Events() []T {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.log)
}

// Last returns the newest event published so far, if any. Unlike Events
// it copies nothing, so a status read can call it on every live feed.
func (f *Feed[T]) Last() (last T, ok bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.log); n > 0 {
		last, ok = f.log[n-1], true
	}
	return last, ok
}

// Stream hands every event of the feed to emit, in order and in batches:
// first whatever was published before the call, then each run of events
// that accumulated while emit was busy — one event per batch when the
// subscriber keeps up. A batch is a read-only view of the log, valid for
// good. Stream returns true once the feed has finished and everything
// published before the Finish has been emitted, false when ctx ended first
// (the caller's terminal event then has nobody to go to).
func (f *Feed[T]) Stream(ctx context.Context, emit func(batch []T)) bool {
	wake := make(chan struct{}, 1)
	f.mu.Lock()
	if f.subs == nil {
		f.subs = make(map[chan struct{}]struct{})
	}
	f.subs[wake] = struct{}{}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(f.subs, wake)
		f.mu.Unlock()
	}()
	cursor := 0
	for {
		// Look at done before the log: if the feed had finished by now, the
		// log read next holds every event there will ever be.
		finished := false
		select {
		case <-f.done:
			finished = true
		default:
		}
		f.mu.Lock()
		n := len(f.log)
		batch := f.log[cursor:n:n] // appends land past n, or in a new array
		f.mu.Unlock()
		if len(batch) > 0 {
			emit(batch)
			cursor = n
		}
		if finished {
			return true
		}
		select {
		case <-wake:
		case <-f.done:
		case <-ctx.Done():
			return false
		}
	}
}
