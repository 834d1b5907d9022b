package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fedwcm/internal/obs"
)

// Instrument registers the store's metric series on reg. Counter series are
// Func metrics reading the same Stats fields the JSON status surface
// reports — one source of truth, no drift. Latency histograms and the
// bytes counter attach to the store itself. A nil reg is a no-op.
func (s *Store) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	stat := func(pick func(Stats) int64) func() float64 {
		return func() float64 { return float64(pick(s.Stats())) }
	}
	reg.CounterFunc("fedwcm_store_mem_hits_total", "Store Gets served from the in-memory LRU.",
		stat(func(st Stats) int64 { return st.MemHits }))
	reg.CounterFunc("fedwcm_store_disk_hits_total", "Store Gets served from disk.",
		stat(func(st Stats) int64 { return st.DiskHits }))
	reg.CounterFunc("fedwcm_store_misses_total", "Store Gets that found nothing.",
		stat(func(st Stats) int64 { return st.Misses }))
	reg.CounterFunc("fedwcm_store_puts_total", "Successful store Puts.",
		stat(func(st Stats) int64 { return st.Puts }))
	reg.CounterFunc("fedwcm_store_lru_evictions_total", "Store LRU entries evicted to stay within capacity.",
		stat(func(st Stats) int64 { return st.Evictions }))
	s.getSeconds = reg.Histogram("fedwcm_store_get_seconds", "Store Get latency in seconds.", nil)
	s.putSeconds = reg.Histogram("fedwcm_store_put_seconds", "Store Put latency in seconds.", nil)
	s.putBytes = reg.Counter("fedwcm_store_put_bytes_total", "Bytes written by store Puts.")
}

// traceLog is the store's span log: one append-only JSONL file at the store
// root. It is a diagnostic, not an artifact — no lookup reads it, it carries no
// determinism or durability guarantee, and every line names its run
// ("trace":"<fp>"), so `grep <fp> traces.jsonl` is one run's dump.
const traceLog = "traces.jsonl"

// PutTrace appends the spans recorded for fp's run to the store's span log
// with a single write — no temp file, no rename, no per-run inode. A re-run
// of the same fingerprint appends rather than replaces. Empty spans are a
// no-op: an uninstrumented run leaves no lines.
func (s *Store) PutTrace(fp string, spans []obs.Span) error {
	if !ValidFingerprint(fp) {
		return fmt.Errorf("store: invalid fingerprint %q", fp)
	}
	if len(spans) == 0 {
		return nil
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, sp := range spans {
		if err := enc.Encode(sp); err != nil {
			return fmt.Errorf("store: encode trace %s: %w", fp, err)
		}
	}
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.root, traceLog), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, err = f.Write(buf.Bytes())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("store: write trace %s: %w", fp, err)
	}
	return nil
}
