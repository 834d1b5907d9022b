package dispatch

import (
	"context"
	"sync"
	"testing"
)

// collect streams f on its own goroutine, appending every event it is given
// to the returned slice; the channel yields Stream's verdict when it returns.
func collect(ctx context.Context, f *Feed[int]) (got *[]int, verdict <-chan bool) {
	out := new([]int)
	done := make(chan bool, 1)
	go func() {
		done <- f.Stream(ctx, func(batch []int) { *out = append(*out, batch...) })
	}()
	return out, done
}

func wantSequence(t *testing.T, got []int, n int) {
	t.Helper()
	if len(got) != n {
		t.Fatalf("delivered %d events, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d is %d: out of order or duplicated", i, v)
		}
	}
}

// TestFeedStalledSubscriberMissesNothing: a subscriber stuck in its first
// write while 1 001 events are published and the feed finishes still gets
// all of them, in order, before Stream reports the feed complete — and the
// publisher never waited for it. (The channel-per-subscriber feed this
// replaced delivered 257 and then reported true.)
func TestFeedStalledSubscriberMissesNothing(t *testing.T) {
	const n = 1001
	f := NewFeed[int]()
	f.Publish(0)
	entered, release := make(chan struct{}), make(chan struct{})
	var got []int
	verdict := make(chan bool, 1)
	go func() {
		first := true
		verdict <- f.Stream(context.Background(), func(batch []int) {
			if first {
				first = false
				close(entered)
				<-release
			}
			got = append(got, batch...)
		})
	}()
	<-entered
	for i := 1; i < n; i++ {
		f.Publish(i) // returns although nobody is reading
	}
	f.Finish()
	close(release)
	if !<-verdict {
		t.Fatal("Stream reported the context ended; the feed finished")
	}
	wantSequence(t, got, n)
}

// TestFeedReplayThenLive: whenever a subscriber joins relative to a running
// publisher, it sees the log from the start, each event once, in order.
func TestFeedReplayThenLive(t *testing.T) {
	const n = 500
	for lap := 0; lap < 20; lap++ {
		f := NewFeed[int]()
		for i := 0; i < lap*10; i++ { // a different amount of replay each lap
			f.Publish(i)
		}
		go func() {
			for i := lap * 10; i < n; i++ {
				f.Publish(i)
			}
			f.Finish()
		}()
		got, verdict := collect(context.Background(), f)
		if !<-verdict {
			t.Fatal("Stream reported the context ended")
		}
		wantSequence(t, *got, n)
	}
}

// TestFeedFinishRacingLastPublish: the owner's last Publish followed at once
// by Finish must not let a subscriber conclude without the last event.
func TestFeedFinishRacingLastPublish(t *testing.T) {
	for lap := 0; lap < 200; lap++ {
		f := NewFeed[int]()
		got, verdict := collect(context.Background(), f)
		f.Publish(0)
		f.Publish(1)
		f.Finish()
		if !<-verdict {
			t.Fatal("Stream reported the context ended")
		}
		wantSequence(t, *got, 2)
	}
}

func TestFeedStreamStopsWithContext(t *testing.T) {
	f := NewFeed[int]()
	f.Publish(0)
	ctx, cancel := context.WithCancel(context.Background())
	seen := make(chan struct{})
	verdict := make(chan bool, 1)
	go func() {
		verdict <- f.Stream(ctx, func([]int) { close(seen) })
	}()
	<-seen // the replay arrived; the subscriber now waits for more
	cancel()
	if <-verdict {
		t.Fatal("Stream reported the feed complete; it never finished")
	}
	f.mu.Lock()
	left := len(f.subs)
	f.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d subscriptions left behind", left)
	}
	f.Publish(1) // a departed subscriber costs the publisher nothing
}

// TestFeedSubscribersKeepTheirOwnCursor: a subscriber that reads as events
// come and one that is held back until the end both see the whole log — the
// first an event at a time (a live trickle is one batch, so one flush, per
// event, after at most the one empty batch a subscriber that finds nothing
// gets before it waits), the second in at most two batches.
func TestFeedSubscribersKeepTheirOwnCursor(t *testing.T) {
	const n = 300
	f := NewFeed[int]()
	var mu sync.Mutex
	fast, fastBatches, fastEmpty := 0, 0, 0
	caughtUp := sync.NewCond(&mu)
	fastVerdict := make(chan bool, 1)
	go func() {
		fastVerdict <- f.Stream(context.Background(), func(batch []int) {
			mu.Lock()
			if len(batch) == 0 && fastBatches == 0 {
				fastEmpty++ // only ever the first batch
			} else {
				fast += len(batch)
				fastBatches++
			}
			mu.Unlock()
			caughtUp.Broadcast()
		})
	}()
	release := make(chan struct{})
	var slow []int
	slowBatches := 0
	slowVerdict := make(chan bool, 1)
	go func() {
		slowVerdict <- f.Stream(context.Background(), func(batch []int) {
			<-release
			slow = append(slow, batch...)
			slowBatches++
		})
	}()
	for i := 0; i < n; i++ {
		f.Publish(i)
		// The fast subscriber is never more than the event in flight behind.
		mu.Lock()
		for fast < i+1 {
			caughtUp.Wait()
		}
		mu.Unlock()
	}
	f.Finish()
	close(release)
	if !<-fastVerdict || !<-slowVerdict {
		t.Fatal("a subscriber reported the context ended")
	}
	if fastBatches != n || fastEmpty > 1 {
		t.Fatalf("the subscriber that kept up got %d batches for %d events and %d empty first batches, want one each and at most one",
			fastBatches, n, fastEmpty)
	}
	wantSequence(t, slow, n)
	if slowBatches > 2 {
		t.Fatalf("the held-back subscriber needed %d batches to catch up, want at most 2", slowBatches)
	}
}

// TestFeedBatchIsAStableView: a batch stays what it was when later events
// are appended to the log, and appending to a batch cannot write into it.
func TestFeedBatchIsAStableView(t *testing.T) {
	f := NewFeed[int]()
	f.Publish(0)
	f.Publish(1)
	var first []int
	proceed := make(chan struct{})
	verdict := make(chan bool, 1)
	go func() {
		verdict <- f.Stream(context.Background(), func(batch []int) {
			if first == nil {
				first = batch
				close(proceed)
			}
		})
	}()
	<-proceed
	f.Publish(2)
	_ = append(first, -1) // must reallocate, not overwrite the event just logged
	f.Finish()
	<-verdict
	wantSequence(t, first, 2)
	wantSequence(t, f.Events(), 3)
}

// TestFeedLast: an empty feed has no newest event; after Publish, and after
// a publishAll that adopts or appends a run, Last answers the newest one.
func TestFeedLast(t *testing.T) {
	f := NewFeed[int]()
	if v, ok := f.Last(); ok {
		t.Fatalf("empty feed: Last = %d, true", v)
	}
	f.publishAll([]int{0, 1, 2}) // adopted by the empty log
	if v, ok := f.Last(); !ok || v != 2 {
		t.Fatalf("after adopting publishAll: Last = %d, %v; want 2, true", v, ok)
	}
	f.Publish(3)
	if v, ok := f.Last(); !ok || v != 3 {
		t.Fatalf("after Publish: Last = %d, %v; want 3, true", v, ok)
	}
	f.publishAll([]int{4, 5}) // appended to a non-empty log
	if v, ok := f.Last(); !ok || v != 5 {
		t.Fatalf("after appending publishAll: Last = %d, %v; want 5, true", v, ok)
	}
	f.Finish()
	if v, ok := f.Last(); !ok || v != 5 {
		t.Fatalf("after Finish: Last = %d, %v; want 5, true", v, ok)
	}
}

// TestFeedEmptyBatchBeforeFirstWait: a subscriber that finds nothing gets
// one empty batch before it waits, then the events; one whose first look
// finds events, or finds the feed finished, gets no empty batch.
func TestFeedEmptyBatchBeforeFirstWait(t *testing.T) {
	f := NewFeed[int]()
	batches := make(chan []int, 4)
	verdict := make(chan bool, 1)
	go func() {
		verdict <- f.Stream(context.Background(), func(batch []int) { batches <- batch })
	}()
	if first := <-batches; len(first) != 0 {
		t.Fatalf("first batch of an empty feed = %v, want empty", first)
	}
	f.Publish(0)
	if b := <-batches; len(b) != 1 || b[0] != 0 {
		t.Fatalf("batch after Publish = %v, want [0]", b)
	}
	f.Finish()
	if !<-verdict {
		t.Fatal("Stream reported the context ended")
	}
	if len(batches) != 0 {
		t.Fatalf("extra batch %v", <-batches)
	}

	for _, finish := range []bool{false, true} {
		g := NewFeed[int]()
		g.Publish(0)
		if finish {
			g.Finish()
		}
		ctx, cancel := context.WithCancel(context.Background())
		var got [][]int
		done := make(chan bool, 1)
		go func() {
			done <- g.Stream(ctx, func(batch []int) {
				got = append(got, batch)
				cancel()
			})
		}()
		<-done
		cancel()
		if len(got) != 1 || len(got[0]) != 1 {
			t.Fatalf("finished=%v: batches %v, want one holding the event", finish, got)
		}
	}
}
