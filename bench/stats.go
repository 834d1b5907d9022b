package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// percentile returns the nearest-rank q-quantile (0 < q < 1) and whether it
// may be reported: a percentile is only meaningful with at least ten samples
// beyond it, so p95 needs 200 samples and p99 needs 1000.
func percentile(vs []float64, q float64) (v float64, ok bool) {
	if len(vs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s)))) // 1-based nearest rank
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], len(s)-rank >= 10
}

// sample is one measured value and the share of the VM's CPU capacity the
// hypervisor gave to someone else while it was measured.
type sample struct{ v, stolen float64 }

// quietLimit is the stolen share up to which a sample counts as measured on
// a quiet host. On the reference host a ctl_drain segment with 7% stolen
// runs 20% slow and one with 20% stolen runs 55% slow, in episodes of tens
// of seconds that come and go with the neighbours.
const quietLimit = 0.02

// quietMedian is the median of the samples measured on a quiet host: those
// whose stolen share is within quietLimit or, in a run disturbed throughout,
// within the run's own lower quartile of stolen shares. Steal is the
// neighbours' doing, never the program's, so choosing by it favours neither
// side of a comparison. kept is how many samples the median is over.
func quietMedian(ss []sample) (med float64, kept int) {
	if len(ss) == 0 {
		return 0, 0
	}
	shares := make([]float64, len(ss))
	for i, s := range ss {
		shares[i] = s.stolen
	}
	sort.Float64s(shares)
	limit := math.Max(quietLimit, shares[(len(shares)+3)/4-1])
	var vs []float64
	for _, s := range ss {
		if s.stolen <= limit {
			vs = append(vs, s.v)
		}
	}
	return median(vs), len(vs)
}

// spread is (max−min)/median: the lap-to-lap range printed next to every
// median so a disturbed run is visible without rerunning.
func spread(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs[1:] {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	m := median(vs)
	if m == 0 {
		return 0
	}
	return (hi - lo) / m
}

// ratio is a/b with 0 for an empty denominator, so per-cell metrics of a
// workload that does none of that work read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
