package partition

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Stats summarises a partition's quantity and label skew; Figure 11
// reproduces these numbers for the FedGraB-style partition.
type Stats struct {
	Clients       int
	TotalSamples  int
	MinSize       int
	MaxSize       int
	GiniQuantity  float64 // 0 = perfectly equal sizes
	Top10PctShare float64 // share of data held by the largest 10% of clients
	Bottom40Share float64 // share of data held by the smallest 40% of clients
	MeanLabelSkew float64 // mean L1 distance between client mix and global mix
}

// ComputeStats derives Stats from a partition and the global class mix.
func ComputeStats(p *Partition, globalProportions []float64) Stats {
	sizes := p.Sizes()
	sorted := append([]int(nil), sizes...)
	sort.Ints(sorted)
	total := 0
	for _, s := range sizes {
		total += s
	}
	st := Stats{Clients: len(sizes), TotalSamples: total}
	if len(sorted) == 0 || total == 0 {
		return st
	}
	st.MinSize = sorted[0]
	st.MaxSize = sorted[len(sorted)-1]
	st.GiniQuantity = gini(sorted)

	top := int(math.Ceil(float64(len(sorted)) * 0.1))
	sumTop := 0
	for _, s := range sorted[len(sorted)-top:] {
		sumTop += s
	}
	st.Top10PctShare = float64(sumTop) / float64(total)

	bottom := int(math.Floor(float64(len(sorted)) * 0.4))
	sumBottom := 0
	for _, s := range sorted[:bottom] {
		sumBottom += s
	}
	st.Bottom40Share = float64(sumBottom) / float64(total)

	props := p.Proportions()
	skew := 0.0
	for _, mix := range props {
		d := 0.0
		for c := range mix {
			d += math.Abs(mix[c] - globalProportions[c])
		}
		skew += d
	}
	st.MeanLabelSkew = skew / float64(len(props))
	return st
}

// gini computes the Gini coefficient of a sorted non-negative size list.
func gini(sorted []int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	var cum, weighted float64
	for i, s := range sorted {
		cum += float64(s)
		weighted += float64(float64(i+1) * float64(s))
	}
	if cum == 0 {
		return 0
	}
	return (2*weighted)/(float64(n)*cum) - float64(n+1)/float64(n)
}

// String renders the stats as a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("clients=%d total=%d size=[%d,%d] gini=%.3f top10%%=%.1f%% bottom40%%=%.1f%% labelSkew=%.3f",
		s.Clients, s.TotalSamples, s.MinSize, s.MaxSize, s.GiniQuantity,
		100*s.Top10PctShare, 100*s.Bottom40Share, s.MeanLabelSkew)
}

// Histogram renders a crude text histogram of client sizes (for fig11).
func Histogram(p *Partition, bins int) string {
	sizes := p.Sizes()
	if len(sizes) == 0 || bins <= 0 {
		return ""
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	if maxSize == 0 {
		return ""
	}
	counts := make([]int, bins)
	for _, s := range sizes {
		b := s * bins / (maxSize + 1)
		counts[b]++
	}
	var sb strings.Builder
	for b, c := range counts {
		lo := b * (maxSize + 1) / bins
		hi := (b+1)*(maxSize+1)/bins - 1
		fmt.Fprintf(&sb, "%5d-%-5d |%s (%d)\n", lo, hi, strings.Repeat("#", c), c)
	}
	return sb.String()
}
