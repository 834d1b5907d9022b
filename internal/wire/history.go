package wire

import (
	"errors"
	"fmt"
	"sort"

	"fedwcm/internal/fl"
)

// statsState carries the per-column delta state threaded through a batch of
// RoundStats. Rows are written in order; each column (round number, test
// accuracy, per-class entry i, metric key k, …) deltas against the same
// column of the previous row, which is what makes slowly-moving series
// collapse to a byte or two per value.
type statsState struct {
	round       int64
	acc, loss   fcol
	tm          fcol
	perClass    []fcol
	shot        [3]fcol
	meanStale   fcol
	staleHist   []int64
	metricKeys  []string
	metricPrev  []fcol
	metricIndex map[string]int
}

func (st *statsState) perClassPrev(i int) *fcol {
	for len(st.perClass) <= i {
		st.perClass = append(st.perClass, fcol{})
	}
	return &st.perClass[i]
}

func (st *statsState) staleHistPrev(i int) *int64 {
	for len(st.staleHist) <= i {
		st.staleHist = append(st.staleHist, 0)
	}
	return &st.staleHist[i]
}

// encStats appends a batch of RoundStats, every column lossless. The byte
// after the count is a retired column-format flag, always 0: it once marked a
// float16 per-class column, which decoders now refuse.
func encStats(e *enc, stats []fl.RoundStat) {
	e.u(uint64(len(stats)))
	e.byte1(0)
	st := &statsState{metricIndex: map[string]int{}}
	for i := range stats {
		s := &stats[i]
		e.z(int64(s.Round) - st.round)
		st.round = int64(s.Round)
		e.fx(&st.acc, s.TestAcc)
		e.fx(&st.loss, s.TrainLoss)
		e.fx(&st.tm, s.Time)

		e.u(uint64(len(s.PerClass)))
		for j, v := range s.PerClass {
			e.fx(st.perClassPrev(j), v)
		}

		e.u(uint64(len(s.Metrics)))
		if len(s.Metrics) > 0 {
			keys := make([]string, 0, len(s.Metrics))
			for k := range s.Metrics {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				id, ok := st.metricIndex[k]
				if !ok {
					id = len(st.metricKeys)
					st.metricIndex[k] = id
					st.metricKeys = append(st.metricKeys, k)
					st.metricPrev = append(st.metricPrev, fcol{})
					e.u(uint64(id))
					e.str(k)
				} else {
					e.u(uint64(id))
				}
				e.fx(&st.metricPrev[id], s.Metrics[k])
			}
		}

		if s.Shot != nil {
			e.byte1(1)
			e.fx(&st.shot[0], s.Shot.Head)
			e.fx(&st.shot[1], s.Shot.Medium)
			e.fx(&st.shot[2], s.Shot.Tail)
		} else {
			e.byte1(0)
		}

		if s.Async != nil {
			e.byte1(1)
			e.u(uint64(s.Async.Buffer))
			if s.Async.Partial {
				e.byte1(1)
			} else {
				e.byte1(0)
			}
			e.u(uint64(s.Async.Waves))
			e.fx(&st.meanStale, s.Async.MeanStale)
			e.u(uint64(s.Async.MaxStale))
			e.u(uint64(len(s.Async.StaleHist)))
			for j, v := range s.Async.StaleHist {
				p := st.staleHistPrev(j)
				e.z(int64(v) - *p)
				*p = int64(v)
			}
		} else {
			e.byte1(0)
		}
	}
}

func decStats(d *dec) []fl.RoundStat {
	n := d.length()
	if d.byte1() != 0 {
		d.fail(errors.New("wire: float16 per-class column is no longer supported"))
	}
	if d.err != nil || n == 0 {
		return nil
	}
	st := &statsState{metricIndex: map[string]int{}}
	stats := make([]fl.RoundStat, n)
	for i := range stats {
		if d.err != nil {
			return nil
		}
		s := &stats[i]
		st.round += d.z()
		s.Round = int(st.round)
		s.TestAcc = d.fx(&st.acc)
		s.TrainLoss = d.fx(&st.loss)
		s.Time = d.fx(&st.tm)

		if pc := d.length(); pc > 0 {
			s.PerClass = make([]float64, pc)
			for j := range s.PerClass {
				s.PerClass[j] = d.fx(st.perClassPrev(j))
			}
		}

		if nm := d.length(); nm > 0 {
			s.Metrics = make(map[string]float64, nm)
			for j := 0; j < nm; j++ {
				id := d.u()
				switch {
				case id == uint64(len(st.metricKeys)):
					k := d.str()
					st.metricIndex[k] = len(st.metricKeys)
					st.metricKeys = append(st.metricKeys, k)
					st.metricPrev = append(st.metricPrev, fcol{})
				case id > uint64(len(st.metricKeys)):
					d.fail(fmt.Errorf("wire: metric key id %d out of range", id))
					return nil
				}
				v := d.fx(&st.metricPrev[id])
				if d.err != nil {
					return nil
				}
				s.Metrics[st.metricKeys[id]] = v
			}
		}

		if d.byte1() != 0 {
			s.Shot = &fl.ShotAcc{
				Head:   d.fx(&st.shot[0]),
				Medium: d.fx(&st.shot[1]),
				Tail:   d.fx(&st.shot[2]),
			}
		}

		if d.byte1() != 0 {
			a := &fl.AsyncRoundStat{}
			a.Buffer = int(d.u())
			a.Partial = d.byte1() != 0
			a.Waves = int(d.u())
			a.MeanStale = d.fx(&st.meanStale)
			a.MaxStale = int(d.u())
			if nh := d.length(); nh > 0 {
				a.StaleHist = make([]int, nh)
				for j := range a.StaleHist {
					p := st.staleHistPrev(j)
					*p += d.z()
					a.StaleHist[j] = int(*p)
				}
			}
			s.Async = a
		}
	}
	if d.err != nil {
		return nil
	}
	return stats
}

func encHistory(e *enc, h *fl.History) {
	if h == nil {
		e.byte1(0)
		return
	}
	e.byte1(1)
	e.str(h.Method)
	encStats(e, h.Stats)
}

func decHistory(d *dec) *fl.History {
	if d.byte1() == 0 {
		return nil
	}
	h := &fl.History{Method: d.str()}
	h.Stats = decStats(d)
	if d.err != nil {
		return nil
	}
	return h
}

// EncodeResult encodes a worker's terminal result upload: the run history
// (nil on failure) and an error message. The history roundtrip is
// bit-for-bit lossless — this is the payload that reaches the artifact
// store, so its decoded form must JSON-serialize to exactly the bytes the
// worker would have uploaded.
func EncodeResult(h *fl.History, errMsg string) []byte {
	e := &enc{}
	e.envelope(kindResult)
	encHistory(e, h)
	e.str(errMsg)
	return e.b
}

// DecodeResult decodes an EncodeResult payload.
func DecodeResult(p []byte) (*fl.History, string, error) {
	d, err := openEnvelope(p, kindResult)
	if err != nil {
		return nil, "", err
	}
	h := decHistory(d)
	msg := d.str()
	if d.err != nil {
		return nil, "", d.err
	}
	return h, msg, nil
}

// EncodeStats encodes a batch of round stats (heartbeat progress relay),
// losslessly like every other payload: a relayed round is the round the
// worker recorded.
func EncodeStats(stats []fl.RoundStat) []byte {
	e := &enc{}
	e.envelope(kindStats)
	encStats(e, stats)
	return e.b
}

// DecodeStats decodes an EncodeStats payload.
func DecodeStats(p []byte) ([]fl.RoundStat, error) {
	d, err := openEnvelope(p, kindStats)
	if err != nil {
		return nil, err
	}
	stats := decStats(d)
	if d.err != nil {
		return nil, d.err
	}
	return stats, nil
}
