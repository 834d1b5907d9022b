package dispatch

import (
	"errors"
	"fmt"
	"time"

	"fedwcm/internal/dispatch/wal"
)

// queue is the job state machine every topology runs: the job table, the
// FIFO (requeues go to the front), workers with slot limits, the attempts
// cap and the queue bound. It is pure — no clock (every method that needs
// the time is handed it), no I/O, no lock, no goroutine, no metric handle;
// the adapter around it (the Coordinator, Local's included) serialises
// calls and carries out the effects each method returns. queue_test.go
// enforces the purity.
//
//	(submitting →) pending → leased → done
//
// with expiry and clean handover looping back to pending. On a journaled
// queue the log holds one submit record per accepted job and nothing else:
// a job waits in submitting until its record is durable, every later
// transition changes the table directly and produces no record, and replay
// (apply) rebuilds every job the log names as pending with no attempts, in
// submission order. The transition table is in DESIGN.md "Dispatch layer".
type queue struct {
	ttl         time.Duration // lease lifetime without a heartbeat
	maxAttempts int           // leases a job may consume before expiry fails it
	bound       int           // FIFO capacity
	journal     bool          // a new job waits in submitting until its submit record is durable

	jobs        map[string]*job // every live job by fingerprint
	first, last *job            // the same jobs in submission order, linked through prev/next
	fifo        []*job          // pending jobs, next lease first
	workers     map[string]*worker
	seq         uint64 // worker ids handed out
	closed      bool
}

type jobState uint8

const (
	// jobSubmitting: accepted on a journaled queue, submit record not yet
	// durable. Joinable, but not leasable or adoptable — a lease granted now
	// could complete a job a crashed coordinator never knew it accepted.
	jobSubmitting jobState = iota
	jobPending             // in the FIFO
	jobLeased              // counted against j.worker's slots
	jobDone                // left the table
)

type job struct {
	h          *handle
	prev, next *job // submission order
	state      jobState
	worker     string // lease holder when leased
	attempts   int    // leases granted so far
	adopted    bool   // the current lease was adopted mid-run: its heartbeat rounds are not relayed
	expiry     time.Time
	// enqueuedAt is reset on every requeue (each wait is its own
	// observation); leasedAt and lastBeat belong to the current lease.
	enqueuedAt, leasedAt, lastBeat time.Time
	// relay is the Coordinator's delivery mark. It orders publishes into the
	// handle's feed between goroutines — synchronisation, not queue state —
	// and no queue method touches it.
	relay relay
}

type worker struct {
	id       string
	slots    int // max concurrent leases
	held     int // leases held now: the jobs with state leased and worker == id
	lastSeen time.Time
}

// Lease outcomes, as the dispatch.lease span's error field reports them.
const (
	outcomeStored      = "" // a successful upload
	outcomeWorkerError = "worker error"
	outcomeEmpty       = "empty history"
	outcomeExpired     = "lease expired"
	outcomeHandover    = "handover"
)

var (
	errUnknownWorker = errors.New("dispatch: unknown worker")
	errUnknownJob    = errors.New("dispatch: unknown job")
	errLeaseLost     = errors.New("dispatch: lease lost")
)

// effects is what a transition leaves for its adapter to do. wake and space
// are acted on before the adapter's lock is released, and so is the
// retention of failed handles; the rest after it.
type effects struct {
	journal  bool       // the submitted job's record is owed to the log (journaled queues only)
	wake     bool       // work or capacity appeared: wake lease pollers
	space    bool       // the FIFO shrank: wake blocked submitters
	failed   []failure  // handles to complete with an error
	terminal int        // jobs that left the table for good
	granted  leaseStart // the lease that began, if granted.j != nil
	ended    []leaseEnd // the leases that ended
}

type failure struct {
	h   *handle
	err error
}

// leaseStart is what a grant leaves to do and observe: the handle turns
// running, the lease wait, and whether the relay restarts from round zero
// (fresh) or stays silent until the upload (adopted).
type leaseStart struct {
	j       *job
	fresh   bool
	attempt int
	waited  time.Duration
}

// leaseEnd is what an ended lease leaves to observe: the hold histogram and
// the dispatch.lease span.
type leaseEnd struct {
	job, worker string
	outcome     string
	since       time.Time
	held        time.Duration
	attempt     int
	requeued    bool // back in the FIFO rather than terminal
}

func newQueue(bound, maxAttempts int, ttl time.Duration, journal bool) *queue {
	return &queue{
		ttl: ttl, maxAttempts: maxAttempts, bound: bound, journal: journal,
		jobs: make(map[string]*job), workers: make(map[string]*worker),
	}
}

// --- records ---

// apply replays one record of a log: a submit enters its job as pending,
// unless the id is live already. Submits are all the log holds, so every
// other record type — a lease, requeue or complete in a log written before
// the log kept submits only — is ignored, and so is the Attempts field: a
// replayed job starts with none. A job the log names that has since
// finished is the store's to know; recovery asks it.
func (q *queue) apply(now time.Time, r wal.Record) {
	if r.Type == wal.TypeSubmit && q.jobs[r.Job] == nil {
		q.pend(now, q.add(Job{ID: r.Job, Spec: r.Spec}))
	}
}

// submitRecord is what the log holds of an accepted job.
func submitRecord(jb Job) wal.Record {
	return wal.Record{Type: wal.TypeSubmit, Job: jb.ID, Spec: jb.Spec}
}

// live is the checkpoint: a submit record per live job, in submission
// order. Submitting jobs are included, because their own record may sit in
// the very log the checkpoint replaces.
func (q *queue) live() []wal.Record {
	recs := make([]wal.Record, 0, len(q.jobs))
	for j := q.first; j != nil; j = j.next {
		recs = append(recs, submitRecord(j.h.job))
	}
	return recs
}

// add enters a new job into the table in the submitting state.
func (q *queue) add(jb Job) *job {
	j := &job{h: newHandle(jb), prev: q.last}
	if q.last == nil {
		q.first = j
	} else {
		q.last.next = j
	}
	q.last = j
	q.jobs[jb.ID] = j
	return j
}

// pend puts j, new or submitting, at the back of the FIFO.
func (q *queue) pend(now time.Time, j *job) {
	j.state, j.enqueuedAt = jobPending, now
	q.fifo = append(q.fifo, j)
}

// detach takes j out of the FIFO or off its holder's slot count.
func (q *queue) detach(j *job) {
	switch j.state {
	case jobPending:
		if q.fifo[0] == j { // a grant: the common case
			q.fifo = q.fifo[1:]
			break
		}
		for i, p := range q.fifo { // adopted, or finished by a worker that never leased it
			if p == j {
				q.fifo = append(q.fifo[:i], q.fifo[i+1:]...)
				break
			}
		}
	case jobLeased:
		if w := q.workers[j.worker]; w != nil {
			w.held--
		}
		j.worker = ""
	}
}

// drop removes j from the table.
func (q *queue) drop(j *job) {
	q.detach(j)
	if j.prev == nil {
		q.first = j.next
	} else {
		j.prev.next = j.next
	}
	if j.next == nil {
		q.last = j.prev
	} else {
		j.next.prev = j.prev
	}
	j.prev, j.next, j.state = nil, nil, jobDone
	delete(q.jobs, j.h.job.ID)
}

// --- events ---

// submit joins the live job with this id, refuses with ErrQueueFull or
// ErrClosed, or enters a new job. On a journaled queue the new job is
// submitting and fx.journal is set: the adapter makes its submitRecord
// durable and calls admit. Otherwise it is pending at once.
func (q *queue) submit(now time.Time, jb Job) (j *job, fx effects, err error) {
	if q.closed {
		return nil, fx, ErrClosed
	}
	j = q.jobs[jb.ID]
	if j == nil && len(q.fifo) >= q.bound {
		return nil, fx, ErrQueueFull
	}
	joined := j != nil
	if !joined {
		j = q.add(jb)
	}
	switch {
	case joined: // single-flight: share the execution
	case q.journal:
		fx.journal = true
	default:
		q.pend(now, j)
		fx.wake = true
	}
	return j, fx, nil
}

// admit follows a journaled submit: with err nil the record is durable and
// the job becomes pending; otherwise the append failed and the job is
// dropped, its handle failing with err. A no-op if j left meanwhile —
// finished by a worker that already had the result, or shut down.
func (q *queue) admit(now time.Time, j *job, err error) (fx effects) {
	switch {
	case j.state != jobSubmitting:
	case err != nil:
		q.drop(j)
		fx.failed = []failure{{j.h, err}}
	default:
		q.pend(now, j)
		fx.wake = true
	}
	return fx
}

// register adds a worker with the given slot limit and returns its id.
func (q *queue) register(now time.Time, slots int) string {
	q.seq++
	id := fmt.Sprintf("w-%d", q.seq)
	q.workers[id] = &worker{id: id, slots: slots, lastSeen: now}
	return id
}

// forget is a clean deregistration: the worker's leases are handed over —
// requeued at the front of the FIFO in submission order, each with its
// attempt refunded, because the retry budget is for crashes and the holder
// did not crash — and its registration dropped.
func (q *queue) forget(now time.Time, wid string) (fx effects, err error) {
	if q.workers[wid] == nil {
		return fx, errUnknownWorker
	}
	for j := q.last; j != nil; j = j.prev { // backwards, so the oldest ends up first
		if j.state == jobLeased && j.worker == wid {
			q.release(&fx, now, j, outcomeHandover, true)
			j.attempts = max(j.attempts-1, 0)
		}
	}
	delete(q.workers, wid)
	return fx, nil
}

// release takes j out of where it is — back to the front of the FIFO when
// requeue is set, out of the table for good otherwise — and reports the
// lease that ends with it, if j held one.
func (q *queue) release(fx *effects, now time.Time, j *job, outcome string, requeue bool) {
	end := leaseEnd{
		job: j.h.job.ID, worker: j.worker, outcome: outcome,
		since: j.leasedAt, held: now.Sub(j.leasedAt), attempt: j.attempts,
		requeued: requeue,
	}
	leased := j.state == jobLeased
	if requeue {
		q.detach(j)
		j.state, j.enqueuedAt = jobPending, now
		q.fifo = append([]*job{j}, q.fifo...)
		fx.wake = true
	} else {
		q.drop(j)
		fx.terminal++
	}
	if leased {
		fx.ended = append(fx.ended, end)
	}
}

// grant leases the head of the FIFO to the worker; fx.granted.j is nil when
// it is at its slot limit or nothing is pending.
func (q *queue) grant(now time.Time, wid string) (fx effects, err error) {
	w := q.workers[wid]
	if w == nil {
		return fx, errUnknownWorker
	}
	w.lastSeen = now
	if w.held >= w.slots || len(q.fifo) == 0 {
		return fx, nil
	}
	return q.lease(now, w, q.fifo[0], false), nil
}

// adopt leases this job, not the head, to a worker that is already running
// it: it kept computing across a coordinator restart or its own lease
// expiry, and the job is back in the FIFO. errLeaseLost for any job the
// worker may not take — gone, held by someone else, still submitting, or
// the worker is at its slot limit.
func (q *queue) adopt(now time.Time, wid, id string) (fx effects, err error) {
	w, j := q.workers[wid], q.jobs[id]
	if w == nil {
		return fx, errUnknownWorker
	}
	if j == nil || j.state != jobPending || w.held >= w.slots {
		return fx, errLeaseLost
	}
	return q.lease(now, w, j, true), nil
}

// lease is the one grant: j, pending, becomes leased to w and consumes an
// attempt.
func (q *queue) lease(now time.Time, w *worker, j *job, adopted bool) effects {
	fx := effects{space: true}
	waited := now.Sub(j.enqueuedAt)
	q.detach(j)
	j.state, j.worker = jobLeased, w.id
	j.attempts++
	w.held++
	j.adopted, j.expiry = adopted, now.Add(q.ttl)
	j.leasedAt, j.lastBeat = now, now
	fx.granted = leaseStart{j: j, fresh: !adopted, attempt: j.attempts, waited: waited}
	return fx
}

// beat is a heartbeat on id from wid: it extends the lease, adopting it
// first if wid does not hold it. gap is the time since the previous beat of
// a lease already held.
func (q *queue) beat(now time.Time, wid, id string) (j *job, gap time.Duration, fx effects, err error) {
	w := q.workers[wid]
	if w == nil {
		return nil, 0, fx, errUnknownWorker
	}
	w.lastSeen = now
	if j = q.jobs[id]; j == nil || j.state != jobLeased || j.worker != wid {
		if fx, err = q.adopt(now, wid, id); err != nil {
			return nil, 0, fx, err
		}
		j = fx.granted.j
	}
	gap = now.Sub(j.lastBeat)
	j.expiry, j.lastBeat = now.Add(q.ttl), now
	return j, gap, fx, nil
}

// finish is a result upload for id posted by wid. A successful result is
// accepted from anyone, wherever the job is — it is a deterministic function
// of the job, so whoever finishes first wins. outcomeWorkerError is honoured
// only from the lease holder: a stale worker reporting a local failure must
// not kill the retry that is recomputing the job.
func (q *queue) finish(now time.Time, wid, id, outcome string) (j *job, fx effects, err error) {
	if w := q.workers[wid]; w != nil {
		w.lastSeen = now
	}
	if j = q.jobs[id]; j == nil {
		return nil, fx, errUnknownJob
	}
	if outcome == outcomeWorkerError && (j.state != jobLeased || j.worker != wid) {
		return nil, fx, errLeaseLost
	}
	fx.wake, fx.space = true, j.state == jobPending
	q.release(&fx, now, j, outcome, false)
	return j, fx, nil
}

// expire ends every lease whose holder has not been heard from for a TTL:
// the job goes back to the front of the FIFO, or past maxAttempts fails for
// good. Workers holding nothing and unseen for ten TTLs are pruned.
func (q *queue) expire(now time.Time) (fx effects) {
	for j, prev := q.last, (*job)(nil); j != nil; j = prev { // backwards: see forget
		if prev = j.prev; j.state != jobLeased || now.Before(j.expiry) {
			continue
		}
		if j.attempts < q.maxAttempts {
			q.release(&fx, now, j, outcomeExpired, true)
			continue
		}
		q.release(&fx, now, j, outcomeExpired, false)
		fx.failed = append(fx.failed, failure{j.h, fmt.Errorf("dispatch: job %.12s failed: lease expired after %d attempts", j.h.job.ID, j.attempts)})
	}
	for id, w := range q.workers {
		if w.held == 0 && now.Sub(w.lastSeen) > 10*q.ttl {
			delete(q.workers, id)
		}
	}
	return fx
}

// shutdown empties the queue and refuses everything after. It is not
// completion — a journaled queue's next life re-enters every job whose
// submit the log holds — and returns the handles of the jobs still waiting
// and of those some worker is running; what each set is told is the
// adapter's call.
func (q *queue) shutdown() (queued, running []*handle) {
	q.closed = true
	for q.first != nil {
		if j := q.first; j.state == jobLeased {
			running = append(running, j.h)
		} else {
			queued = append(queued, j.h)
		}
		q.drop(q.first)
	}
	return queued, running
}

// leased counts the leases held across all workers.
func (q *queue) leased() (n int) {
	for _, w := range q.workers {
		n += w.held
	}
	return n
}
