package dispatch

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"fedwcm/internal/dispatch/wal"
)

// The queue-level tests run on a bare queue under a virtual clock: no HTTP,
// no sleeps, no goroutines.
var t0 = time.Unix(1_000_000, 0)

const testTTL = 8 * time.Second

// fifoOf renders the FIFO as "id/attempts" in lease order.
func fifoOf(q *queue) []string {
	out := []string{}
	for _, j := range q.fifo {
		out = append(out, fmt.Sprintf("%s/%d", j.h.job.ID, j.attempts))
	}
	return out
}

// TestQueueApply pins what a replayed log means — the written contract of
// the fold package wal used to do, now the queue's: each case is a record
// history and the FIFO ("id/attempts", next lease first) recovery rebuilds
// from it.
func TestQueueApply(t *testing.T) {
	sub := func(id string, attempts int) wal.Record {
		return wal.Record{Type: wal.TypeSubmit, Job: id, Spec: []byte(`{}`), Attempts: attempts}
	}
	lease := func(id, w string, attempts int) wal.Record {
		return wal.Record{Type: wal.TypeLease, Job: id, Worker: w, Attempts: attempts}
	}
	requeue := func(id string, attempts int) wal.Record {
		return wal.Record{Type: wal.TypeRequeue, Job: id, Attempts: attempts}
	}
	complete := func(id string) wal.Record { return wal.Record{Type: wal.TypeComplete, Job: id, Status: "stored"} }
	for _, tc := range []struct {
		name   string
		recs   []wal.Record
		leased int // leases held when the log ends, before recovery hands them over
		want   []string
	}{
		{"empty log", nil, 0, []string{}},
		{"expiry keeps the attempt, handover refunds it; a resubmit after complete is a new job", []wal.Record{
			sub("j", 0), lease("j", "w-1", 1), requeue("j", 1), lease("j", "w-2", 2), requeue("j", 1),
			sub("k", 0), complete("k"), sub("k", 0),
		}, 0, []string{"j/1", "k/0"}},
		{"a second submit of a live id is ignored", []wal.Record{
			sub("a", 0), lease("a", "w-1", 1), sub("a", 0), sub("b", 0), sub("b", 0),
		}, 1, []string{"a/0", "b/0"}},
		{"a compacted submit carries its attempts", []wal.Record{sub("a", 2), sub("b", 1), lease("b", "w-1", 1)}, 1, []string{"b/0", "a/2"}},
		{"records for unknown jobs are ignored", []wal.Record{
			lease("x", "w-1", 1), requeue("x", 1), complete("x"), sub("a", 0), complete("a"), lease("a", "w-1", 1),
		}, 0, []string{}},
		{"leased at the crash go first, in submission order, attempt refunded", []wal.Record{
			sub("a", 0), sub("b", 0), sub("c", 0), sub("d", 0), lease("a", "w-1", 1), lease("b", "w-1", 1), requeue("b", 1), lease("d", "w-2", 1),
		}, 2, []string{"a/0", "d/0", "b/1", "c/0"}},
		{"a requeue that lost the append race to the next lease still wins replay", []wal.Record{
			sub("a", 0), lease("a", "w-1", 1), lease("a", "w-2", 2), requeue("a", 1),
		}, 0, []string{"a/1"}},
		{"a lost tail replays the state before it", []wal.Record{sub("a", 0), sub("b", 0), lease("a", "w-1", 1)}[:2], 0, []string{"a/0", "b/0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := newQueue(8, 3, testTTL, true)
			for _, r := range tc.recs {
				q.apply(t0, r)
			}
			if got := len(q.jobs) - len(q.fifo); got != tc.leased {
				t.Errorf("%d jobs leased when the log ends, want %d", got, tc.leased)
			}
			if got := len(q.restart(t0).ended); got != tc.leased {
				t.Errorf("recovery handed over %d leases, want %d", got, tc.leased)
			}
			if got := fifoOf(q); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("recovered FIFO %v, want %v", got, tc.want)
			}
			checkQueue(t, q)
			// The checkpoint is the inverse: its records rebuild the same queue.
			q2 := newQueue(8, 3, testTTL, true)
			for _, r := range q.live() {
				q2.apply(t0, r)
			}
			if got := fifoOf(q2); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("live() replays to %v, want %v", got, tc.want)
			}
		})
	}
}

// TestQueueSubmittingJobIsNotLeasable is bug (i) at the level it was fixed:
// between a durable submit's acceptance and its fsync the job can be joined,
// but not leased — and if a worker that already had the result uploads it in
// that window, nothing is left for admit to enqueue.
func TestQueueSubmittingJobIsNotLeasable(t *testing.T) {
	q := newQueue(8, 3, testTTL, true)
	w := q.register(t0, "", 8)
	j, fx, err := q.submit(t0, Job{ID: "a", Spec: []byte(`{}`)}, SubmitOpts{})
	if err != nil || len(fx.recs) != 1 || fx.recs[0].Type != wal.TypeSubmit || fx.wake {
		t.Fatalf("journaled submit: effects %+v, %v; want only the submit record to make durable", fx, err)
	}
	if j2, _, _ := q.submit(t0, Job{ID: "a"}, SubmitOpts{}); j2 != j {
		t.Fatal("a second submission did not join the submitting job")
	}
	if _, err := q.adopt(t0, w, "a"); !errors.Is(err, errLeaseLost) {
		t.Fatalf("adopt of a submitting job: %v, want errLeaseLost", err)
	}
	if _, _, _, err := q.beat(t0, w, "a"); !errors.Is(err, errLeaseLost) {
		t.Fatalf("heartbeat on a submitting job: %v, want errLeaseLost (HTTP 410)", err)
	}
	if fx, _ := q.grant(t0, w); fx.granted.j != nil {
		t.Fatal("grant leased a job whose submit record is not durable")
	}
	if _, _, err := q.finish(t0, w, "a", outcomeWorkerError); !errors.Is(err, errLeaseLost) {
		t.Fatalf("error upload for a submitting job: %v, want errLeaseLost", err)
	}
	done, fx, err := q.finish(t0, w, "a", outcomeStored)
	if err != nil || done != j || fx.terminal != 1 {
		t.Fatalf("successful upload for a submitting job: %v, effects %+v; want it finished", err, fx)
	}
	if fx := q.admit(t0, j, nil); fx.wake || len(q.fifo) != 0 || len(q.live()) != 0 {
		t.Fatalf("admit after the job finished: effects %+v, FIFO %v, live %v; want nothing", fx, fifoOf(q), q.live())
	}
	checkQueue(t, q)

	// The ordinary order of events: admit makes it leasable; a failed append
	// drops it and fails the handle instead.
	j, _, _ = q.submit(t0, Job{ID: "b"}, SubmitOpts{})
	if fx := q.admit(t0, j, nil); !fx.wake || !reflect.DeepEqual(fifoOf(q), []string{"b/0"}) {
		t.Fatalf("admit: effects %+v, FIFO %v", fx, fifoOf(q))
	}
	j, _, _ = q.submit(t0, Job{ID: "c"}, SubmitOpts{})
	boom := errors.New("disk full")
	if fx := q.admit(t0, j, boom); len(fx.failed) != 1 || fx.failed[0].h != j.h || fx.failed[0].err != boom || q.jobs["c"] != nil {
		t.Fatalf("admit after a failed append: effects %+v, want the handle failed and the job gone", fx)
	}
	checkQueue(t, q)
}

// TestQueueIsPure holds queue.go to what its doc comment claims, in the
// docsync_test.go style: it may import only what a pure state machine needs,
// read no clock, and start no goroutine.
func TestQueueIsPure(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "queue.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"errors": true, "fmt": true, "time": true, "fedwcm/internal/fl": true, "fedwcm/internal/dispatch/wal": true}
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); !allowed[path] {
			t.Errorf("queue.go imports %q: the queue does no I/O, takes no lock and touches no obs handle", path)
		}
	}
	clock := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true, "Sleep": true, "NewTimer": true, "NewTicker": true}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			t.Errorf("%s: queue.go starts a goroutine", fset.Position(n.Pos()))
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && x.Name == "time" && clock[n.Sel.Name] {
				t.Errorf("%s: queue.go reads the clock (time.%s); every method that needs the time takes it", fset.Position(n.Pos()), n.Sel.Name)
			}
		}
		return true
	})
}

// checkQueue asserts the structural invariants: every live job is in exactly
// one of submitting / the FIFO / one registered worker's slots, no worker is
// over its limit, and attempts stay within the cap.
func checkQueue(t *testing.T, q *queue) {
	t.Helper()
	n, pending, held := 0, 0, map[string]int{}
	for j, prev := q.first, (*job)(nil); j != nil; prev, j = j, j.next {
		n++
		id := j.h.job.ID
		if j.prev != prev || q.jobs[id] != j {
			t.Fatalf("job %s: broken submission-order list or table entry", id)
		}
		if j.attempts < 0 || j.attempts > q.maxAttempts {
			t.Fatalf("job %s: %d attempts, cap %d", id, j.attempts, q.maxAttempts)
		}
		switch j.state {
		case jobSubmitting:
			if !q.journal {
				t.Fatalf("job %s is submitting on a queue with no journal", id)
			}
		case jobPending:
			pending++
		case jobLeased:
			if q.workers[j.worker] == nil {
				t.Fatalf("job %s is leased to %q, which is not registered", id, j.worker)
			}
			held[j.worker]++
		default:
			t.Fatalf("job %s is in the table in state %d", id, j.state)
		}
	}
	if n != len(q.jobs) || pending != len(q.fifo) {
		t.Fatalf("%d listed / %d in the table; %d pending / %d in the FIFO", n, len(q.jobs), pending, len(q.fifo))
	}
	seen := map[*job]bool{}
	for _, j := range q.fifo {
		if j.state != jobPending || seen[j] {
			t.Fatalf("FIFO holds job %s in state %d (or twice)", j.h.job.ID, j.state)
		}
		seen[j] = true
	}
	for id, w := range q.workers {
		if w.held != held[id] || w.held > w.slots {
			t.Fatalf("worker %s: held %d, %d jobs name it, %d slots", id, w.held, held[id], w.slots)
		}
	}
}

// foldRecords is the reference the queue's replay is compared against: the
// fold package wal used to do, written the obvious way. It returns each
// live job's attempts after recovery's refund.
func foldRecords(recs []wal.Record) map[string]int {
	type st struct {
		attempts int
		leased   bool
	}
	jobs := map[string]*st{}
	for _, r := range recs {
		switch j := jobs[r.Job]; {
		case r.Type == wal.TypeSubmit && j == nil:
			jobs[r.Job] = &st{attempts: r.Attempts}
		case j == nil:
		case r.Type == wal.TypeLease:
			j.leased, j.attempts = true, r.Attempts
		case r.Type == wal.TypeRequeue:
			j.leased, j.attempts = false, r.Attempts
		case r.Type == wal.TypeComplete:
			delete(jobs, r.Job)
		}
	}
	out := map[string]int{}
	for id, j := range jobs {
		if out[id] = j.attempts; j.leased && j.attempts > 0 {
			out[id]--
		}
	}
	return out
}

// recoverQueue is recovery without the store: apply, hand over every lease.
func recoverQueue(t *testing.T, like *queue, recs []wal.Record, now time.Time) *queue {
	t.Helper()
	q := newQueue(like.bound, like.maxAttempts, like.ttl, like.journal)
	for _, r := range recs {
		q.apply(now, r)
	}
	q.restart(now)
	checkQueue(t, q)
	if n := q.leased(); n != 0 || len(q.fifo) != len(q.jobs) {
		t.Fatalf("recovered queue holds %d leases, %d of %d jobs pending", n, len(q.fifo), len(q.jobs))
	}
	return q
}

// queueSim plays the adapter for FuzzQueue: it carries out effects the way
// Coordinator.run does, keeps the log a journal would hold, and checks the
// model after every step.
type queueSim struct {
	t       *testing.T
	q       *queue
	now     time.Time
	log     []wal.Record
	closed  bool
	handles map[*handle]bool // every handle this life's submits returned → completed
	durable map[*job]bool    // jobs whose submit record the log acknowledged
	waiting map[string]*job  // submitting jobs, by id
	starts  []*int           // OnStart deliveries, per submission
}

func (s *queueSim) complete(h *handle, err error) {
	s.t.Helper()
	if !h.complete(nil, err) {
		s.t.Fatalf("handle of job %s completed twice", h.job.ID)
	}
	if _, ok := s.handles[h]; ok {
		s.handles[h] = true
	}
}

// run carries out one transition's effects. before is the FIFO length the
// transition started from.
func (s *queueSim) run(before int, fx effects) {
	s.t.Helper()
	s.log = append(s.log, fx.recs...)
	if len(fx.recs) > 0 && !s.q.journal {
		s.t.Fatal("a queue with no journal emitted records")
	}
	for _, f := range fx.starts {
		f()
	}
	for _, f := range fx.failed {
		s.complete(f.h, f.err)
	}
	if g := fx.granted.j; g != nil && !s.durable[g] {
		s.t.Fatalf("job %s was leased before its submit record was durable", g.h.job.ID)
	}
	if after := len(s.q.fifo); after > before && !fx.wake {
		s.t.Fatal("the FIFO grew and no lease poller is woken")
	} else if after < before && !fx.space {
		s.t.Fatal("the FIFO shrank and no blocked submitter is woken")
	}
}

// check asserts the model after a step.
func (s *queueSim) check() {
	s.t.Helper()
	checkQueue(s.t, s.q)
	for h, done := range s.handles {
		if j := s.q.jobs[h.job.ID]; done == (j != nil && j.h == h) {
			s.t.Fatalf("job %s: handle completed=%t, in the table=%t", h.job.ID, done, !done)
		}
	}
	for _, n := range s.starts {
		if *n > 1 {
			s.t.Fatalf("an OnStart callback fired %d times", *n)
		}
	}
	if !s.q.journal || s.closed { // shutdown journals nothing: the log keeps the jobs the queue dropped
		return
	}
	r := recoverQueue(s.t, s.q, s.log, s.now)
	for id, j := range s.q.jobs {
		if rj := r.jobs[id]; rj == nil || rj.attempts > j.attempts {
			s.t.Fatalf("job %s (%d attempts) replays as %+v", id, j.attempts, rj)
		}
	}
	if len(r.jobs) != len(s.q.jobs) {
		s.t.Fatalf("the log replays to %d live jobs, the queue holds %d", len(r.jobs), len(s.q.jobs))
	}
}

// checkPrefixes: a crash may lose any tail of the log, so every prefix must
// recover to a well-formed queue holding exactly what the reference fold
// says it should.
func (s *queueSim) checkPrefixes() {
	s.t.Helper()
	for k := 0; k <= len(s.log); k++ {
		r, want := recoverQueue(s.t, s.q, s.log[:k], s.now), foldRecords(s.log[:k])
		for id, j := range r.jobs {
			if a, ok := want[id]; !ok || a != j.attempts {
				s.t.Fatalf("prefix %d/%d: job %s recovers with %d attempts, the reference fold says %d (live: %t)", k, len(s.log), id, j.attempts, a, ok)
			}
		}
		if len(r.jobs) != len(want) {
			s.t.Fatalf("prefix %d/%d: %d jobs recovered, the reference fold says %d", k, len(s.log), len(r.jobs), len(want))
		}
	}
}

// simOps are FuzzQueue's events; a step is three bytes — one of these (any
// other byte picks by remainder), a worker digit, a job letter — and spaces
// are skipped, so the checked-in schedules read as text:
//
//	s-a submit a      a-a admit a        r2- register, 2 slots   f1- forget w-1
//	g1- grant to w-1  d1a w-1 adopts a   b1a w-1 heartbeats a    k1a / e1a w-1 uploads a: ok / error
//	x3- 3 half-TTLs pass, then expire    q-- shutdown            p-- checkpoint
//	c2- crash losing the last 2 records, recover, checkpoint
const simOps = "sarfgdbkexqpc"

// FuzzQueue runs a decoded schedule of events on a bare queue and checks the
// model after every step. w-0 is never registered: it is the stranger.
func FuzzQueue(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		data = []byte(strings.ReplaceAll(string(data), " ", ""))
		if len(data) == 0 {
			return
		}
		s := &queueSim{t: t, now: t0, q: newQueue(2, 2, testTTL, data[0]%2 == 0)} // 'J' journaled, 'M' in memory
		s.handles, s.durable, s.waiting = map[*handle]bool{}, map[*job]bool{}, map[string]*job{}
		data = data[1:]
		for ; len(data) >= 3 && len(s.log) < 256; data = data[3:] {
			op := strings.IndexByte(simOps, data[0])
			if op < 0 {
				op = int(data[0]) % len(simOps)
			}
			d, wid, id := int(data[1]%8), fmt.Sprintf("w-%d", data[1]%8), string(rune('a'+(data[2]+3)%4))
			before := len(s.q.fifo)
			switch simOps[op] {
			case 's':
				n := new(int)
				j, fx, err := s.q.submit(s.now, Job{ID: id, Spec: []byte(id)}, SubmitOpts{OnStart: func() { *n++ }})
				switch {
				case errors.Is(err, ErrClosed) && s.closed, errors.Is(err, ErrQueueFull) && len(s.q.fifo) >= s.q.bound:
				case err != nil:
					t.Fatalf("submit: %v", err)
				default:
					s.starts = append(s.starts, n)
					s.handles[j.h] = false
					if len(fx.recs) > 0 {
						s.waiting[id] = j
					} else if !s.q.journal {
						s.durable[j] = true
					}
				}
				s.run(before, fx)
			case 'a':
				if j := s.waiting[id]; j != nil {
					delete(s.waiting, id)
					s.durable[j] = true
					s.run(before, s.q.admit(s.now, j, nil))
				}
			case 'r':
				s.q.register(s.now, "", max(1, d%3))
			case 'f':
				_, fx, _ := s.q.forget(s.now, wid)
				s.run(before, fx)
			case 'g':
				fx, _ := s.q.grant(s.now, wid)
				s.run(before, fx)
			case 'd':
				fx, _ := s.q.adopt(s.now, wid, id)
				s.run(before, fx)
			case 'b':
				_, _, fx, _ := s.q.beat(s.now, wid, id)
				s.run(before, fx)
			case 'k', 'e':
				outcome := outcomeStored
				if simOps[op] == 'e' {
					outcome = outcomeWorkerError
				}
				j, fx, err := s.q.finish(s.now, wid, id, outcome)
				s.run(before, fx)
				if err == nil {
					s.complete(j.h, nil)
				}
			case 'x':
				s.now = s.now.Add(time.Duration(d) * testTTL / 2)
				s.run(before, s.q.expire(s.now))
			case 'q':
				if !s.closed {
					s.closed = true
					queued, running := s.q.shutdown()
					for _, h := range append(queued, running...) {
						s.complete(h, ErrClosed)
					}
				}
			case 'p':
				if s.q.journal && !s.closed {
					s.log = s.q.live()
				}
			case 'c':
				if s.q.journal {
					s.checkPrefixes()
					s.q = recoverQueue(t, s.q, s.log[:len(s.log)-min(d, len(s.log))], s.now)
					s.log, s.closed = s.q.live(), false
					s.handles, s.durable, s.waiting = map[*handle]bool{}, map[*job]bool{}, map[string]*job{}
					for _, j := range s.q.jobs {
						s.durable[j] = true
					}
				}
			}
			s.check()
		}
		s.checkPrefixes()
	})
}
