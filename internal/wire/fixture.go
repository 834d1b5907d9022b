package wire

import (
	"math"
	"math/rand"

	"fedwcm/internal/fl"
)

// SampleHistory builds a deterministic history shaped like real engine
// output, used as the reference workload of the bench/ wire.* probes and
// as a store and trace fixture. It mirrors what Evaluate and the async engine actually emit: accuracy
// columns are correct/total quotients over a fixed test set (2000 samples,
// 200 per class) that plateau as the run converges, losses and adaptive
// metrics are full-entropy floats, and shot/async blocks appear at the
// cadence the engine records them.
func SampleHistory(rounds, classes int) *fl.History {
	r := rand.New(rand.NewSource(97))
	perClassN := 200
	totals := make([]int, classes)
	buckets := make([]int, classes)
	for c := range totals {
		totals[c] = perClassN
		buckets[c] = c * 3 / classes
	}
	correct := make([]int, classes)
	h := &fl.History{Method: "fedwcm"}
	for i := 0; i < rounds; i++ {
		sumCorrect := 0
		perClass := make([]float64, classes)
		for c := range correct {
			// Per-class accuracy random-walks upward and plateaus: most
			// rounds a class's count moves by a few samples or not at all.
			if step := r.Intn(5) - 1; step > 0 || correct[c] > 0 {
				correct[c] += step
			}
			if correct[c] > perClassN {
				correct[c] = perClassN
			}
			if correct[c] < 0 {
				correct[c] = 0
			}
			perClass[c] = float64(correct[c]) / float64(perClassN)
			sumCorrect += correct[c]
		}
		s := fl.RoundStat{
			Round:     i + 1,
			TestAcc:   float64(sumCorrect) / float64(classes*perClassN),
			PerClass:  perClass,
			TrainLoss: float64(2.3*math.Exp(-float64(i)/40)) + float64(0.01*r.Float64()),
			Time:      float64(i + 1),
		}
		if i%2 == 0 {
			s.Metrics = map[string]float64{
				"alpha":       0.1 + float64(0.02*r.Float64()),
				"buffer_wait": float64(r.Intn(20)),
			}
		}
		s.Shot = fl.ShotAccuracy(perClass, totals, buckets)
		if i%2 == 1 {
			s.Async = &fl.AsyncRoundStat{
				Buffer:    8,
				Waves:     i + 2,
				MeanStale: float64(r.Intn(24)) / 8,
				MaxStale:  r.Intn(5),
				StaleHist: []int{5, 2, 1},
			}
		}
		h.Stats = append(h.Stats, s)
	}
	return h
}
