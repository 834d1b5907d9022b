// Package store is the content-addressed, on-disk result store behind the
// experiment run service (internal/serve): histories are filed under the
// SHA-256 fingerprint of their spec's canonical JSON (see
// sweep.RunSpec.Fingerprint), so identical specs always resolve to
// the same artifact and a sweep's repeated cells cost one run each.
//
// Layout mirrors git's object store: <root>/<fp[:2]>/<fp>.json, one JSONL
// file per history in the internal/trace encoding (the same format fedsim
// -json emits, so CLI output round-trips into the store). Writes are
// atomic and durable — temp file in the target directory, fsync, rename,
// then a directory fsync — so a crashed writer (or a power loss mid-write)
// never leaves a half-written artifact where a reader could find it. A
// small in-memory LRU fronts the disk for the hot cells of a sweep.
package store

import (
	"bytes"
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"fedwcm/internal/fl"
	"fedwcm/internal/obs"
	"fedwcm/internal/trace"
)

// DefaultLRUSize is the in-memory cache capacity Open uses when given 0.
const DefaultLRUSize = 128

// Stats counts cache traffic since Open (monotonic; read via Store.Stats).
// It is the single source of truth for store counters: the obs registry
// (see Instrument) exposes these same fields, so /metrics and JSON status
// endpoints cannot diverge.
type Stats struct {
	MemHits   int64 // Get served from the in-memory LRU
	DiskHits  int64 // Get served from disk (and promoted into the LRU)
	Misses    int64 // Get found nothing
	Puts      int64 // successful Put calls
	Evictions int64 // LRU entries dropped to stay within capacity
}

type entry struct {
	fp   string
	hist *fl.History
}

// Store is a content-addressed history store. All methods are safe for
// concurrent use. Histories handed out by Get are shared with the cache and
// must be treated as immutable by callers.
type Store struct {
	root string

	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; element value is *entry
	idx   map[string]*list.Element
	stats Stats
	dirs  map[string]struct{} // prefix directories known created and fsynced into root

	// traceMu serializes appends to the span log (see PutTrace).
	traceMu sync.Mutex

	// Observation handles, set by Instrument; nil (no-op) until then.
	putSeconds *obs.Histogram
	putBytes   *obs.Counter
}

// Open creates (if needed) the root directory and returns a store over it.
// lruSize 0 selects DefaultLRUSize; negative disables the in-memory cache.
func Open(root string, lruSize int) (*Store, error) {
	if root == "" {
		return nil, fmt.Errorf("store: empty root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if lruSize == 0 {
		lruSize = DefaultLRUSize
	}
	return &Store{
		root:  root,
		cap:   lruSize,
		order: list.New(),
		idx:   make(map[string]*list.Element),
		dirs:  make(map[string]struct{}),
	}, nil
}

// ValidFingerprint accepts lowercase-hex SHA-256 digests only: fingerprints
// become path components, so anything else (traversal, case aliasing) is
// rejected before touching the filesystem. Serving layers use it to tell
// malformed ids (which cannot name anything) from store failures.
func ValidFingerprint(fp string) bool {
	if len(fp) != 64 {
		return false
	}
	for i := 0; i < len(fp); i++ {
		c := fp[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Path returns the on-disk location for a fingerprint (whether or not it
// exists yet), or "" if fp is not a valid fingerprint.
func (s *Store) Path(fp string) string {
	if !ValidFingerprint(fp) {
		return ""
	}
	return s.path(fp)
}

// path is Path for a fingerprint already validated.
func (s *Store) path(fp string) string {
	return filepath.Join(s.root, fp[:2], fp+".json")
}

// readBufs holds the buffers Get reads artifacts into. DecodeHistory copies
// every string it keeps, so a buffer is free again once its artifact is
// decoded. One that grew past maxPooledRead is left to the GC.
var readBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledRead = 1 << 20

// readArtifact decodes fp's artifact from disk through a pooled buffer. A
// missing artifact is the open's own error, so a miss formats nothing.
func (s *Store) readArtifact(fp string) (*fl.History, error) {
	f, err := os.Open(s.path(fp))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := readBufs.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledRead {
			buf.Reset()
			readBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, err
	}
	h, err := trace.DecodeHistory(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", fp, err)
	}
	return h, nil
}

// Get returns the stored history for fp, or ok=false if none exists.
func (s *Store) Get(fp string) (*fl.History, bool, error) {
	if !ValidFingerprint(fp) {
		return nil, false, fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	s.mu.Lock()
	if el, ok := s.idx[fp]; ok {
		s.order.MoveToFront(el)
		h := el.Value.(*entry).hist
		s.stats.MemHits++
		s.mu.Unlock()
		return h, true, nil
	}
	s.mu.Unlock()

	h, err := s.readArtifact(fp)
	if os.IsNotExist(err) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	s.stats.DiskHits++
	s.insertLocked(fp, h)
	s.mu.Unlock()
	return h, true, nil
}

// Put persists the history under fp, atomically replacing any previous
// artifact, and promotes it into the in-memory cache.
func (s *Store) Put(fp string, h *fl.History) error {
	if !ValidFingerprint(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if h == nil {
		return fmt.Errorf("store: nil history")
	}
	if len(h.Stats) == 0 {
		// The JSONL encoding is one record per evaluation point, so an
		// empty history would round-trip with its Method lost — and worse,
		// pin the cell as a permanently "cached" degenerate artifact.
		return fmt.Errorf("store: refusing to persist empty history for %s", fp)
	}
	if s.putSeconds != nil {
		defer func(start time.Time) { s.putSeconds.Observe(time.Since(start).Seconds()) }(time.Now())
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, map[string]*fl.History{fp: h}); err != nil {
		return fmt.Errorf("store: encode %s: %w", fp, err)
	}
	if err := s.writeAtomic(fp, buf.Bytes()); err != nil {
		return err
	}
	s.mu.Lock()
	s.stats.Puts++
	s.insertLocked(fp, h)
	s.mu.Unlock()
	return nil
}

// writeAtomic durably publishes data as fp's artifact — the store's write
// protocol: temp file in the target directory, fsync, rename, directory
// fsync. The temp file is removed on the error paths only; after a
// successful rename there is nothing left under its name.
func (s *Store) writeAtomic(fp string, data []byte) error {
	dir, err := s.ensureDir(fp)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, "."+fp[:8]+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		// The data must be on stable storage before the rename publishes the
		// name: rename-then-crash without this can leave the final path
		// holding an empty or truncated artifact.
		err = SyncFile(tmp)
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", fp, err)
	}
	if err := os.Rename(tmp.Name(), s.Path(fp)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: %w", err)
	}
	if err := SyncDir(dir); err != nil {
		return err
	}
	s.putBytes.Add(uint64(len(data)))
	return nil
}

// ensureDir creates (durably) the prefix directory an artifact for fp
// lives in, returning its path. A fresh prefix directory is fsynced into
// the root before use so the rename that later publishes the artifact has
// a parent that survives a crash. Prefixes that have been through this once
// are remembered, so the steady state issues no stat or mkdir at all.
func (s *Store) ensureDir(fp string) (string, error) {
	dir := filepath.Join(s.root, fp[:2])
	s.mu.Lock()
	_, known := s.dirs[fp[:2]]
	s.mu.Unlock()
	if known {
		return dir, nil
	}
	newDir := false
	if _, serr := os.Stat(dir); serr != nil {
		newDir = true
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("store: %w", err)
	}
	if newDir {
		if err := SyncDir(s.root); err != nil {
			return "", err
		}
	}
	s.mu.Lock()
	s.dirs[fp[:2]] = struct{}{}
	s.mu.Unlock()
	return dir, nil
}

// insertLocked adds or refreshes an LRU entry, evicting from the back once
// over capacity. Caller holds s.mu.
func (s *Store) insertLocked(fp string, h *fl.History) {
	if s.cap < 0 {
		return
	}
	if el, ok := s.idx[fp]; ok {
		el.Value.(*entry).hist = h
		s.order.MoveToFront(el)
		return
	}
	s.idx[fp] = s.order.PushFront(&entry{fp: fp, hist: h})
	for s.order.Len() > s.cap {
		back := s.order.Back()
		s.order.Remove(back)
		delete(s.idx, back.Value.(*entry).fp)
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
