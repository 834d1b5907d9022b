package fl

import (
	"fmt"
	"sort"
	"sync"

	"fedwcm/internal/data"
	"fedwcm/internal/nn"
	"fedwcm/internal/tensor"
)

// evalScratch holds the reusable buffers of one Evaluate call; pooled so
// periodic evaluation inside training loops stays allocation-free apart
// from the per-class result slice (which the caller retains in RoundStat).
type evalScratch struct {
	correct, totals []int
	idx, yb, pred   []int
	xb              *tensor.Dense
}

var evalPool = sync.Pool{New: func() any { return &evalScratch{} }}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// Evaluate runs the network over ds in chunks and returns overall accuracy
// plus per-class accuracy.
func Evaluate(net *nn.Network, ds *data.Dataset, chunk int) (float64, []float64) {
	if chunk <= 0 {
		chunk = 256
	}
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	sc.correct = growInts(sc.correct, ds.Classes)
	sc.totals = growInts(sc.totals, ds.Classes)
	correct, totals := sc.correct, sc.totals
	for i := range correct {
		correct[i] = 0
		totals[i] = 0
	}
	if cap(sc.idx) < chunk {
		sc.idx = make([]int, 0, chunk)
	}
	n := ds.Len()
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		idx := sc.idx[:0]
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		sc.idx = idx
		sc.xb, sc.yb = ds.Gather(idx, sc.xb, sc.yb)
		sc.pred = net.PredictInto(sc.pred, sc.xb)
		for i, p := range sc.pred {
			y := sc.yb[i]
			totals[y]++
			if p == y {
				correct[y]++
			}
		}
	}
	perClass := make([]float64, ds.Classes)
	sumCorrect, sumTotal := 0, 0
	for c := range perClass {
		if totals[c] > 0 {
			perClass[c] = float64(correct[c]) / float64(totals[c])
		}
		sumCorrect += correct[c]
		sumTotal += totals[c]
	}
	acc := 0.0
	if sumTotal > 0 {
		acc = float64(sumCorrect) / float64(sumTotal)
	}
	return acc, perClass
}

// ShotAcc is accuracy split by training-frequency bucket — the long-tail
// reporting convention the paper's related work uses (many/medium/few-shot):
// classes rank by their global train sample count, the top third is Head,
// the bottom third Tail, the rest Medium. Each field is the sample-weighted
// test accuracy over its bucket's classes.
type ShotAcc struct {
	Head   float64 `json:"head"`
	Medium float64 `json:"medium"`
	Tail   float64 `json:"tail"`
}

// ShotBuckets assigns each class to a bucket (0 = head, 1 = medium,
// 2 = tail) by rank of its train-set count, ties broken by class index so
// the assignment is deterministic. With C classes the head takes the top
// ceil(C/3), the tail the bottom floor(C/3).
func ShotBuckets(trainCounts []int) []int {
	c := len(trainCounts)
	order := make([]int, c)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return trainCounts[order[i]] > trainCounts[order[j]]
	})
	nHead := (c + 2) / 3
	nTail := c / 3
	buckets := make([]int, c)
	for rank, cls := range order {
		switch {
		case rank < nHead:
			buckets[cls] = 0
		case rank >= c-nTail:
			buckets[cls] = 2
		default:
			buckets[cls] = 1
		}
	}
	return buckets
}

// ShotAccuracy folds per-class accuracies into head/medium/tail buckets,
// weighting each class by its test sample count. Returns nil when the
// inputs are inconsistent (callers treat that as "no shot data").
func ShotAccuracy(perClass []float64, testTotals []int, buckets []int) *ShotAcc {
	if len(perClass) == 0 || len(perClass) != len(testTotals) || len(perClass) != len(buckets) {
		return nil
	}
	var correct, total [3]float64
	for c, acc := range perClass {
		b := buckets[c]
		if b < 0 || b > 2 {
			return nil
		}
		n := float64(testTotals[c])
		correct[b] += acc * n
		total[b] += n
	}
	out := &ShotAcc{}
	vals := []*float64{&out.Head, &out.Medium, &out.Tail}
	for b := range total {
		if total[b] > 0 {
			*vals[b] = correct[b] / total[b]
		}
	}
	return out
}

// RoundStat is one evaluation snapshot.
type RoundStat struct {
	Round     int                `json:"round"`
	TestAcc   float64            `json:"test_acc"`
	PerClass  []float64          `json:"per_class,omitempty"`
	TrainLoss float64            `json:"train_loss"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	// Shot is the head/medium/tail split of TestAcc; buckets are fixed at
	// run start from the global train profile (drift does not move them, so
	// the series stays comparable across rounds).
	Shot *ShotAcc `json:"shot,omitempty"`
	// Time is the virtual wall-clock at this evaluation, recorded only when
	// Config.Clock is set (the synchronous engine counts 1 unit per round —
	// its deadline — the async engine the event time of the flush). Zero and
	// omitted otherwise, so clock-free histories keep pre-async bytes.
	Time float64 `json:"time,omitempty"`
	// Async is the buffered-aggregation breakdown of the flush that produced
	// this version; only present on async runs with Config.Clock set.
	Async *AsyncRoundStat `json:"async,omitempty"`
}

// AsyncRoundStat describes the aggregation event behind one async
// evaluation: how full the buffer was, whether the flush was a sub-K
// liveness flush, how many sampling waves have been drawn, and the
// staleness profile of the aggregated updates.
type AsyncRoundStat struct {
	Buffer    int     `json:"buffer"`            // updates aggregated in this flush
	Partial   bool    `json:"partial,omitempty"` // liveness flush below K
	Waves     int     `json:"waves"`             // sampling waves drawn so far
	MeanStale float64 `json:"mean_stale"`
	MaxStale  int     `json:"max_stale"`
	StaleHist []int   `json:"stale_hist,omitempty"` // StaleHist[s] = updates s versions stale
}

// History is the recorded trajectory of one federated run.
type History struct {
	Method string      `json:"method"`
	Stats  []RoundStat `json:"stats"`
}

// FinalAcc returns the last evaluated accuracy (0 if never evaluated).
func (h *History) FinalAcc() float64 {
	if len(h.Stats) == 0 {
		return 0
	}
	return h.Stats[len(h.Stats)-1].TestAcc
}

// BestAcc returns the best evaluated accuracy.
func (h *History) BestAcc() float64 {
	best := 0.0
	for _, s := range h.Stats {
		if s.TestAcc > best {
			best = s.TestAcc
		}
	}
	return best
}

// FinalShot returns the last evaluation's shot-bucket accuracies (nil when
// the history carries none, e.g. artifacts stored before shot reporting).
func (h *History) FinalShot() *ShotAcc {
	if len(h.Stats) == 0 {
		return nil
	}
	return h.Stats[len(h.Stats)-1].Shot
}

// TailMeanAcc averages the last k evaluations — a stabler "final accuracy"
// than a single point for noisy runs.
func (h *History) TailMeanAcc(k int) float64 {
	if len(h.Stats) == 0 {
		return 0
	}
	if k > len(h.Stats) {
		k = len(h.Stats)
	}
	sum := 0.0
	for _, s := range h.Stats[len(h.Stats)-k:] {
		sum += s.TestAcc
	}
	return sum / float64(k)
}

func (h *History) String() string {
	return fmt.Sprintf("%s: final=%.4f best=%.4f evals=%d", h.Method, h.FinalAcc(), h.BestAcc(), len(h.Stats))
}
