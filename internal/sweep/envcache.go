package sweep

import (
	"container/list"
	"sync"

	"fedwcm/internal/data"
	"fedwcm/internal/obs"
	"fedwcm/internal/partition"
)

// envKey is the sub-spec that environment construction is a deterministic
// function of: BuildEnv's partition depends on (partition, clients, beta,
// seed) and the train split, the train split on (dataset, IF, scale, seed)
// and the test split on (dataset, scale, seed) — see sharesTrain and
// sharesTest. Everything else in a RunSpec — method, model, rounds,
// learning rates, participation — configures how the environment is
// *used*, not what it is, so a grid sweeping those axes over one dataset
// shares a single construction. It is comparable: EnvCache keys its map by
// it and Engine.Drive groups misses by it, with no hashing of its own.
type envKey struct {
	Dataset   string
	Beta      float64
	IF        float64
	Partition string
	Clients   int
	Scale     float64
	Seed      uint64
}

// envKey reads the environment key off a spec that has Defaults applied
// (every Cell.Spec has). Two specs with equal keys build byte-identical
// train/test datasets and partitions.
func (s RunSpec) envKey() envKey {
	return envKey{
		Dataset:   s.Dataset,
		Beta:      s.Beta,
		IF:        s.IF,
		Partition: s.Partition,
		Clients:   s.Clients,
		Scale:     s.Scale,
		Seed:      s.Cfg.Seed,
	}
}

// sharesTrain reports whether environments k and o have the same train
// split: data.Spec.MakeTrain is a function of (dataset, IF, scale, seed).
func (k envKey) sharesTrain(o envKey) bool {
	return k.Dataset == o.Dataset && k.IF == o.IF && k.Scale == o.Scale && k.Seed == o.Seed
}

// sharesTest reports whether environments k and o have the same test split:
// data.Spec.MakeTest is a function of (dataset, scale, seed).
func (k envKey) sharesTest(o envKey) bool {
	return k.Dataset == o.Dataset && k.Scale == o.Scale && k.Seed == o.Seed
}

// envPieces is what a cache entry holds: the immutable, shareable parts of
// an environment. Datasets are read-only after synthesis and partitions are
// read-only after construction, so concurrent runs can share them; the
// mutable Env wrapper (clients, probes, loss) is built fresh per run.
type envPieces struct {
	train, test *data.Dataset
	part        *partition.Partition
}

// envEntry is one cache slot. ready is closed when the build completes;
// joiners block on it (single-flight), so a 4096-cell grid over one dataset
// performs exactly one construction no matter how many cells race.
type envEntry struct {
	key    envKey
	ready  chan struct{}
	pieces envPieces
	err    error
	elem   *list.Element // position in the LRU list
}

// built waits for e's build to finish and reports whether it succeeded.
func (e *envEntry) built() bool {
	<-e.ready
	return e.err == nil
}

// DefaultEnvCacheCap bounds a zero-configured cache. Entries hold
// partitions and reference datasets, which sibling entries share, so the
// cap is deliberately modest; sweeps touch few distinct environments at a
// time (seeds are the usual multiplier).
const DefaultEnvCacheCap = 8

// EnvCacheStats is a point-in-time counter snapshot, reported by sweep
// status responses and the fedbench summary alongside store hits. Misses
// counts environments built, i.e. partition builds; a miss synthesizes a
// dataset only when no cached sibling holds it.
type EnvCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// EnvCache memoises environment construction keyed by envKey, with
// LRU eviction and single-flight builds. It is safe for concurrent use and
// is shared by every run of the DispatchRunner it backs: repeated
// sweep expansion over one dataset pays partitioning once per environment
// instead of once per cell. Datasets are shared further, between
// environments: a new entry borrows its train split from a cached entry of
// equal (dataset, IF, scale, seed) and its test split from one of equal
// (dataset, scale, seed), and synthesizes only what no cached entry holds —
// a Table 4 grid (12 environments over 6 IFs) synthesizes 7 datasets, not
// 24. A dataset lives as long as some entry (or run) references it, so the
// one cap bounds datasets too.
type EnvCache struct {
	mu      sync.Mutex
	cap     int
	entries map[envKey]*envEntry
	order   *list.List // front = most recently used
	stats   EnvCacheStats
}

// NewEnvCache creates a cache holding up to capacity environments
// (capacity <= 0 uses DefaultEnvCacheCap).
func NewEnvCache(capacity int) *EnvCache {
	if capacity <= 0 {
		capacity = DefaultEnvCacheCap
	}
	return &EnvCache{
		cap:     capacity,
		entries: make(map[envKey]*envEntry),
		order:   list.New(),
	}
}

// Stats returns a snapshot of the cache counters.
func (c *EnvCache) Stats() EnvCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = len(c.entries)
	return st
}

// get returns the pieces for spec, building them at most once per key.
// Build errors are returned to every waiter of that flight but are not
// cached: the next request retries. A miss looks for siblings among the
// cached entries before inserting its own, so it waits only on entries
// inserted before it and waits cannot form a cycle; it takes a sibling's
// split only if that sibling's build succeeded, and synthesizes it otherwise.
func (c *EnvCache) get(s RunSpec) (envPieces, error) {
	s = s.Defaults()
	key := s.envKey()

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready // completed or in flight; share the one build
		return e.pieces, e.err
	}
	c.stats.Misses++
	var trainSib, testSib *envEntry
	for el := c.order.Front(); el != nil && (trainSib == nil || testSib == nil); el = el.Next() {
		o := el.Value.(*envEntry)
		if trainSib == nil && key.sharesTrain(o.key) {
			trainSib = o
		}
		if testSib == nil && key.sharesTest(o.key) {
			testSib = o
		}
	}
	e := &envEntry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	var train, test *data.Dataset
	if trainSib != nil && trainSib.built() {
		train = trainSib.pieces.train
	}
	if testSib != nil && testSib.built() {
		test = testSib.pieces.test
	}
	e.pieces, e.err = s.buildPieces(train, test)
	close(e.ready)
	if e.err != nil {
		c.remove(e)
	}
	return e.pieces, e.err
}

// evictLocked drops least-recently-used *completed* entries until the cache
// is within capacity. In-flight builds are never evicted mid-flight — their
// waiters hold the entry anyway, so evicting would only lose the slot.
func (c *EnvCache) evictLocked() {
	for len(c.entries) > c.cap {
		evicted := false
		for el := c.order.Back(); el != nil; el = el.Prev() {
			e := el.Value.(*envEntry)
			select {
			case <-e.ready:
			default:
				continue // still building
			}
			c.order.Remove(el)
			delete(c.entries, e.key)
			c.stats.Evictions++
			evicted = true
			break
		}
		if !evicted {
			return // everything over cap is in flight; try again next insert
		}
	}
}

// remove deletes a (failed) entry so the key can be retried.
func (c *EnvCache) remove(e *envEntry) {
	c.mu.Lock()
	if cur, ok := c.entries[e.key]; ok && cur == e {
		delete(c.entries, e.key)
		c.order.Remove(e.elem)
	}
	c.mu.Unlock()
}

// Instrument registers the env cache's metric series on reg as Func metrics
// over Stats() — the same snapshot the sweep status API and fedbench's
// "envs built/reused" summary line read, so all three surfaces agree by
// construction. A nil reg is a no-op.
func (c *EnvCache) Instrument(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.CounterFunc("fedwcm_envcache_misses_total", "Environment-cache misses (partition builds; datasets are synthesized only when no cached environment holds them).", func() float64 {
		return float64(c.Stats().Misses)
	})
	reg.GaugeFunc("fedwcm_envcache_entries", "Environments currently cached.", func() float64 {
		return float64(c.Stats().Entries)
	})
}
