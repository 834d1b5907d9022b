package data

import "fedwcm/internal/xrand"

// Sampler yields minibatch index lists over a local shard. Indices are
// positions in the shard's index space [0, n); callers map them to global
// dataset rows.
type Sampler interface {
	// NextBatch returns the next batch of positions; batches cycle through
	// epochs automatically.
	NextBatch() []int
	// BatchesPerEpoch reports how many NextBatch calls make up one epoch.
	BatchesPerEpoch() int
}

// ShuffleSampler is the standard sampler: each epoch is a fresh random
// permutation split into contiguous batches (last short batch kept). The
// zero value is armed by Reset; a sampler re-armed for every client round
// keeps its buffers, so a warm one allocates nothing.
type ShuffleSampler struct {
	rng   *xrand.RNG
	n     int
	batch int
	perm  []int
	pos   int
	buf   []int
}

// Reset arms s over n samples in batches of batch, drawing from rng: it
// refills the identity permutation in its own buffer and shuffles it, so
// every draw is the one a sampler built fresh over (rng, n, batch) makes.
func (s *ShuffleSampler) Reset(rng *xrand.RNG, n, batch int) {
	if n <= 0 || batch <= 0 {
		panic("data: ShuffleSampler needs positive n and batch")
	}
	if batch > n {
		batch = n
	}
	s.rng, s.n, s.batch = rng, n, batch
	if cap(s.perm) < n {
		s.perm = make([]int, n)
	}
	s.perm = s.perm[:n]
	for i := range s.perm {
		s.perm[i] = i
	}
	s.reshuffle()
}

func (s *ShuffleSampler) reshuffle() {
	s.rng.ShuffleInts(s.perm)
	s.pos = 0
}

// NextBatch implements Sampler.
func (s *ShuffleSampler) NextBatch() []int {
	if s.pos >= s.n {
		s.reshuffle()
	}
	end := s.pos + s.batch
	if end > s.n {
		end = s.n
	}
	s.buf = append(s.buf[:0], s.perm[s.pos:end]...)
	s.pos = end
	return s.buf
}

// BatchesPerEpoch implements Sampler.
func (s *ShuffleSampler) BatchesPerEpoch() int {
	return (s.n + s.batch - 1) / s.batch
}

// BalancedSampler implements the paper's "Balance Sampler" baseline: each
// batch draws its labels uniformly over the classes present in the shard,
// then picks a random sample of that class with replacement. Rare local
// classes are therefore oversampled to parity. Like ShuffleSampler, the zero
// value is armed by Reset and a re-armed one allocates nothing.
type BalancedSampler struct {
	rng *xrand.RNG
	// byClass holds the shard's positions grouped by class, ascending within
	// a class: class c's are byClass[start[c]:start[c+1]].
	byClass []int
	start   []int
	present []int // classes with at least one sample, ascending
	batch   int
	epochB  int
	buf     []int
}

// Reset arms s over a shard with the given labels (positions are into the
// label slice), drawing from rng. The class grouping is a counting pass
// into s's own buffers.
func (s *BalancedSampler) Reset(rng *xrand.RNG, labels []int, classes, batch int) {
	if len(labels) == 0 || batch <= 0 {
		panic("data: BalancedSampler needs samples and positive batch")
	}
	if batch > len(labels) {
		batch = len(labels)
	}
	s.rng, s.batch, s.epochB = rng, batch, (len(labels)+batch-1)/batch
	if cap(s.start) < classes+1 {
		s.start = make([]int, classes+1)
	}
	s.start = s.start[:classes+1]
	clear(s.start)
	for _, y := range labels {
		s.start[y+1]++
	}
	s.present = s.present[:0]
	for c := 0; c < classes; c++ {
		if s.start[c+1] > 0 {
			s.present = append(s.present, c)
		}
		s.start[c+1] += s.start[c]
	}
	if cap(s.byClass) < len(labels) {
		s.byClass = make([]int, len(labels))
	}
	s.byClass = s.byClass[:len(labels)]
	// Fill each class's range in label order, advancing start[y] to the end
	// of class y's range, then shift the offsets back by one class.
	for pos, y := range labels {
		s.byClass[s.start[y]] = pos
		s.start[y]++
	}
	copy(s.start[1:], s.start[:classes])
	s.start[0] = 0
}

// NextBatch implements Sampler.
func (s *BalancedSampler) NextBatch() []int {
	s.buf = s.buf[:0]
	for i := 0; i < s.batch; i++ {
		c := s.present[s.rng.Intn(len(s.present))]
		pool := s.byClass[s.start[c]:s.start[c+1]]
		s.buf = append(s.buf, pool[s.rng.Intn(len(pool))])
	}
	return s.buf
}

// BatchesPerEpoch implements Sampler.
func (s *BalancedSampler) BatchesPerEpoch() int { return s.epochB }
