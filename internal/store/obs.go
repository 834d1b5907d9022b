package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"fedwcm/internal/obs"
)

// Instrument registers the store's write-side series on reg: the Put count,
// a Func metric over Stats().Puts, and the Put latency histogram and bytes
// counter, which attach to the store itself. No HTTP route serves Stats;
// tests and the benchmark read it directly. A nil reg is a no-op.
func (s *Store) Instrument(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	reg.CounterFunc("fedwcm_store_puts_total", "Successful store Puts.", func() float64 {
		return float64(s.Stats().Puts)
	})
	s.putSeconds = reg.Histogram("fedwcm_store_put_seconds", "Store Put latency in seconds.", nil)
	s.putBytes = reg.Counter("fedwcm_store_put_bytes_total", "Bytes written by store Puts.")
}

// traceLog is the store's span log: one append-only JSONL file at the store
// root. It is a diagnostic, not an artifact — no lookup reads it, it carries no
// determinism or durability guarantee, and every line names its run
// ("trace":"<fp>"), so `grep <fp> traces.jsonl` is one run's dump.
const traceLog = "traces.jsonl"

// spanLineBytes sizes PutTrace's buffer: a span line with a fingerprint
// trace ID and a short name is ≈ 150 bytes.
const spanLineBytes = 192

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
	buf.Grow(spanLineBytes * len(spans)) // one allocation for the common line
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
