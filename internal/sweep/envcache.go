package sweep

import (
	"container/list"
	"encoding/json"
	"sync"

	"fedwcm/internal/data"
	"fedwcm/internal/obs"
	"fedwcm/internal/partition"
)

// envKey is the sub-spec that environment construction is a deterministic
// function of: BuildEnv's dataset synthesis depends on (dataset, IF, scale,
// seed) and its partition on (partition, clients, beta, seed). Everything
// else in a RunSpec — method, model, rounds, learning rates, participation —
// configures how the environment is *used*, not what it is, so a grid
// sweeping those axes over one dataset shares a single construction.
type envKey struct {
	Dataset   string  `json:"dataset"`
	Beta      float64 `json:"beta"`
	IF        float64 `json:"if"`
	Partition string  `json:"partition"`
	Clients   int     `json:"clients"`
	Scale     float64 `json:"scale"`
	Seed      uint64  `json:"seed"`
}

// EnvFingerprint is the content address of the spec's environment: the hex
// SHA-256 of the canonical JSON of its env-determining fields (defaults
// applied). Two specs with equal EnvFingerprints build byte-identical
// train/test datasets and partitions.
func (s RunSpec) EnvFingerprint() string {
	s = s.Defaults()
	b, err := json.Marshal(envKey{
		Dataset:   s.Dataset,
		Beta:      s.Beta,
		IF:        s.IF,
		Partition: s.Partition,
		Clients:   s.Clients,
		Scale:     s.Scale,
		Seed:      s.Cfg.Seed,
	})
	if err != nil {
		// envKey is a fixed struct of marshalable scalars; this cannot fail.
		panic("sweep: marshal envKey: " + err.Error())
	}
	return fingerprintJSON(b)
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
	key    string
	ready  chan struct{}
	pieces envPieces
	err    error
	elem   *list.Element // position in the LRU list
}

// DefaultEnvCacheCap bounds a zero-configured cache. Entries hold full
// datasets, so the cap is deliberately modest; sweeps touch few distinct
// environments at a time (seeds are the usual multiplier).
const DefaultEnvCacheCap = 8

// EnvCacheStats is a point-in-time counter snapshot, reported by sweep
// status responses and the fedbench summary alongside store hits.
type EnvCacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
}

// EnvCache memoises environment construction keyed by EnvFingerprint, with
// LRU eviction and single-flight builds. It is safe for concurrent use and
// is shared by sweep.Engine and the internal/serve worker pool: repeated
// sweep expansion over one dataset pays dataset synthesis and partitioning
// once instead of once per cell.
type EnvCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*envEntry
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
		entries: make(map[string]*envEntry),
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
// cached: the next request retries.
func (c *EnvCache) get(s RunSpec) (envPieces, error) {
	s = s.Defaults()
	key := s.EnvFingerprint()

	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.stats.Hits++
		c.order.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready // completed or in flight; share the one build
		return e.pieces, e.err
	}
	c.stats.Misses++
	e := &envEntry{key: key, ready: make(chan struct{})}
	e.elem = c.order.PushFront(e)
	c.entries[key] = e
	c.evictLocked()
	c.mu.Unlock()

	e.pieces, e.err = s.buildPieces()
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
	reg.CounterFunc("fedwcm_envcache_hits_total", "Environment-cache hits (construction shared).", func() float64 {
		return float64(c.Stats().Hits)
	})
	reg.CounterFunc("fedwcm_envcache_misses_total", "Environment-cache misses (fresh dataset+partition builds).", func() float64 {
		return float64(c.Stats().Misses)
	})
	reg.CounterFunc("fedwcm_envcache_evictions_total", "Environment-cache LRU evictions.", func() float64 {
		return float64(c.Stats().Evictions)
	})
	reg.GaugeFunc("fedwcm_envcache_entries", "Environments currently cached.", func() float64 {
		return float64(c.Stats().Entries)
	})
}
