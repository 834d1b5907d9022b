package fl

import (
	"context"
	"time"
)

// Run executes a full federated training run of method m in env and returns
// the recorded history.
//
// Concurrency model: the run owns a persistent pool of workers (see
// runtime), each training with a kit — a private network instance (layers
// cache state and are not shareable), a reusable ClientScratch and an RNG —
// taken from, and at the end returned to, a process-wide free list per
// architecture. Every round the sampled
// clients are distributed over the pool; results land in a slice indexed by
// the sampled position, and aggregation happens single-threaded afterwards,
// so the run is deterministic regardless of scheduling.
func Run(env *Env, m Method) *History {
	hist, _ := RunWithProgressCtx(context.Background(), env, m, nil)
	return hist
}

// RunWithProgressCtx is Run with a per-round progress hook and cooperative
// cancellation. onRound, when non-nil, is invoked synchronously from the
// round loop with each RoundStat as it is recorded (the same values appended
// to the returned History); serving layers use it to stream live progress,
// and it has no effect on the run itself. ctx is checked once per round, and
// a cancelled run returns the history accumulated so far alongside ctx's
// error. Cancellation is the only error source, and it never fires between
// the check and the round's stat, so an uncancelled ctx yields a history
// identical to Run's.
func RunWithProgressCtx(ctx context.Context, env *Env, m Method, onRound func(RoundStat)) (*History, error) {
	if ac := env.Cfg.Async; !ac.IsZero() { // buffered-async event scheduler
		c := newRoundCore(env, m, onRound, ac.Concurrency)
		defer c.close()
		return c.hist, newAsyncEngine(c).run(ctx)
	}
	c := newRoundCore(env, m, onRound, env.Cfg.SampleClients)
	defer c.close()
	return c.hist, c.runBarrier(ctx)
}

// runBarrier is the synchronous scheduler: every round draws a cohort,
// trains all of its survivors as one batch against the same global weights,
// and aggregates at the deadline. It is not "async with K = cohort" because
// of what happens at that deadline — a straggler reports the partial work it
// got through (WorkFrac < 1) instead of arriving late — and because it hands
// the runtime's result slots straight to the method, with no per-update copy.
func (c *roundCore) runBarrier(ctx context.Context) error {
	jobs := make([]clientJob, 0, c.cohort)
	for r := 0; r < c.cfg.Rounds; r++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		roundStart := time.Now()
		roundSpan := c.env.Tracer.Start(c.env.TraceID, "fl.round").WithRound(r + 1)
		jobs = jobs[:0]
		for _, id := range c.draw(r) {
			jobs = append(jobs, clientJob{client: id, round: r, frac: c.workFrac(r, id)})
		}
		if len(jobs) == 0 {
			c.emptyRound()
		} else {
			arrived := c.rt.runBatch(jobs)
			c.m.Aggregate(r, c.global, arrived)
			c.noteLoss(arrived)
			c.now++ // one deadline per round, however slow the stragglers
			c.commit(nil)
		}
		c.mx.RoundSeconds.Observe(time.Since(roundStart).Seconds())
		roundSpan.End()
	}
	return nil
}
