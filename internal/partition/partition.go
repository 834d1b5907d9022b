// Package partition assigns a (long-tailed) training set to federated
// clients. It implements the two partitioning strategies the paper
// discusses:
//
//   - EqualQuantity — the paper's own strategy (following BalanceFL): every
//     client receives the same number of samples; each client's class mix is
//     drawn from Dir(β), constrained by global class availability. Smaller β
//     means more skewed local label distributions.
//   - FedGraBStyle — the strategy used by FedGraB/CReFF: each class is split
//     across clients by an independent Dir(β) draw, which produces strong
//     *quantity* skew in addition to label skew (Appendix A / FedWCM-X).
package partition

import (
	"fedwcm/internal/data"
	"fedwcm/internal/xrand"
)

// Partition maps clients to sample indices of the underlying dataset.
type Partition struct {
	// ClientIndices[k] lists dataset row indices owned by client k.
	ClientIndices [][]int
	// Counts[k][c] is the number of class-c samples at client k.
	Counts  [][]int
	Classes int
}

// NumClients returns the number of clients.
func (p *Partition) NumClients() int { return len(p.ClientIndices) }

// Sizes returns per-client sample counts.
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.ClientIndices))
	for k, idx := range p.ClientIndices {
		out[k] = len(idx)
	}
	return out
}

// Proportions returns each client's local class distribution.
func (p *Partition) Proportions() [][]float64 {
	out := make([][]float64, len(p.Counts))
	for k, counts := range p.Counts {
		total := 0
		for _, c := range counts {
			total += c
		}
		row := make([]float64, len(counts))
		if total > 0 {
			for c, n := range counts {
				row[c] = float64(n) / float64(total)
			}
		}
		out[k] = row
	}
	return out
}

func countsFor(ds *data.Dataset, clientIdx [][]int) [][]int {
	counts := make([][]int, len(clientIdx))
	for k, idx := range clientIdx {
		row := make([]int, ds.Classes)
		for _, i := range idx {
			row[ds.Y[i]]++
		}
		counts[k] = row
	}
	return counts
}

// EqualQuantity partitions ds into `clients` shards of (near-)equal size
// whose class mixes follow Dir(beta), respecting global class availability.
//
// Allocation walks clients round-robin, drawing one sample at a time with
// probability ∝ mix_k[c] · remaining_c, which keeps every draw feasible and
// leaves sizes within ±1 of each other. This mirrors the partition shown on
// the right of Figure 2.
func EqualQuantity(rng *xrand.RNG, ds *data.Dataset, clients int, beta float64) *Partition {
	if clients <= 0 {
		panic("partition: need at least one client")
	}
	n := ds.Len()
	pools := ds.IndicesByClass()
	// Shuffle each class pool so popping from the tail is a uniform draw.
	for _, pool := range pools {
		rng.ShuffleInts(pool)
	}
	remaining := make([]int, ds.Classes)
	for c, pool := range pools {
		remaining[c] = len(pool)
	}
	mixes := make([][]float64, clients)
	for k := range mixes {
		mixes[k] = rng.Dirichlet(beta, ds.Classes)
	}
	quota := make([]int, clients)
	base := n / clients
	extra := n % clients
	for k := range quota {
		quota[k] = base
		if k < extra {
			quota[k]++
		}
	}
	clientIdx := make([][]int, clients)
	weights := make([]float64, ds.Classes)
	for k := 0; k < clients; k++ {
		clientIdx[k] = make([]int, 0, quota[k])
		for draw := 0; draw < quota[k]; draw++ {
			feasible := false
			for c := range weights {
				if remaining[c] > 0 {
					weights[c] = mixes[k][c] * float64(remaining[c])
					feasible = feasible || weights[c] > 0
				} else {
					weights[c] = 0
				}
			}
			var c int
			if feasible {
				c = rng.Categorical(weights)
			} else {
				// The client's mix puts zero mass on every class that still
				// has samples; fall back to availability-proportional.
				for cc := range weights {
					weights[cc] = float64(remaining[cc])
				}
				c = rng.Categorical(weights)
			}
			pool := pools[c]
			idx := pool[len(pool)-1]
			pools[c] = pool[:len(pool)-1]
			remaining[c]--
			clientIdx[k] = append(clientIdx[k], idx)
		}
	}
	return &Partition{ClientIndices: clientIdx, Counts: countsFor(ds, clientIdx), Classes: ds.Classes}
}

// FedGraBStyle partitions ds by drawing, for every class c, a Dir(beta)
// split of that class across clients. Clients therefore end up with very
// different data volumes when beta is small (left of Figure 2 / Figure 11).
// Clients left empty are given one sample stolen from the largest client so
// that every client can participate.
func FedGraBStyle(rng *xrand.RNG, ds *data.Dataset, clients int, beta float64) *Partition {
	if clients <= 0 {
		panic("partition: need at least one client")
	}
	pools := ds.IndicesByClass()
	for _, pool := range pools {
		rng.ShuffleInts(pool)
	}
	clientIdx := make([][]int, clients)
	for c, pool := range pools {
		if len(pool) == 0 {
			continue
		}
		share := rng.Dirichlet(beta, clients)
		counts := largestRemainder(share, len(pool))
		pos := 0
		for k := 0; k < clients; k++ {
			clientIdx[k] = append(clientIdx[k], pool[pos:pos+counts[k]]...)
			pos += counts[k]
		}
		_ = c
	}
	// Guarantee non-empty clients (FedGraB assigns at least one sample).
	for k := range clientIdx {
		if len(clientIdx[k]) > 0 {
			continue
		}
		richest := 0
		for j := range clientIdx {
			if len(clientIdx[j]) > len(clientIdx[richest]) {
				richest = j
			}
		}
		if len(clientIdx[richest]) < 2 {
			continue // nothing to steal without emptying the donor
		}
		last := len(clientIdx[richest]) - 1
		clientIdx[k] = append(clientIdx[k], clientIdx[richest][last])
		clientIdx[richest] = clientIdx[richest][:last]
	}
	return &Partition{ClientIndices: clientIdx, Counts: countsFor(ds, clientIdx), Classes: ds.Classes}
}

// largestRemainder apportions total into integer counts proportional to
// share (which is normalised internally), using the largest-remainder
// method so the counts sum exactly to total.
func largestRemainder(share []float64, total int) []int {
	n := len(share)
	sum := 0.0
	for _, s := range share {
		if s > 0 {
			sum += s
		}
	}
	counts := make([]int, n)
	if sum <= 0 {
		counts[0] = total
		return counts
	}
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, n)
	assigned := 0
	for i, s := range share {
		if s < 0 {
			s = 0
		}
		exact := s / sum * float64(total)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	// Hand out the leftover units to the largest fractional remainders.
	for assigned < total {
		best := 0
		for i := 1; i < n; i++ {
			if rems[i].frac > rems[best].frac {
				best = i
			}
		}
		counts[rems[best].idx]++
		rems[best].frac = -1
		assigned++
	}
	return counts
}
