package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fedwcm/internal/obs"
)

// TestPutTraceAppendsToOneLog: the completion path stores a cell as one
// artifact and appends its spans to the store-wide traces.jsonl — one inode
// per completed cell, not two. Hammered from 8 goroutines (run under -race
// in CI), every span line must land whole, no other file may appear, and
// Keys must keep ignoring the log.
func TestPutTraceAppendsToOneLog(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		perWork = 50
		cells   = workers * perWork
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWork; i++ {
				fp := fpFor(fmt.Sprintf("trace-%d-%d", w, i))
				if err := s.Put(fp, testHistory(float64(i))); err != nil {
					errs <- err
					return
				}
				span := obs.Span{Trace: fp, Name: "dispatch.lease", Start: int64(i), DurMS: 1.5, Worker: fmt.Sprintf("w-%d", w), Attempt: 1}
				if err := s.PutTrace(fp, []obs.Span{span}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Exactly one intact JSON line per cell, each naming its own run.
	f, err := os.Open(filepath.Join(s.root, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := make(map[string]bool)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var sp obs.Span
		if err := json.Unmarshal(sc.Bytes(), &sp); err != nil {
			t.Fatalf("torn span line %q: %v", sc.Text(), err)
		}
		if sp.Name != "dispatch.lease" || sp.DurMS != 1.5 || seen[sp.Trace] {
			t.Fatalf("unexpected or repeated span line: %+v", sp)
		}
		seen[sp.Trace] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != cells {
		t.Fatalf("span log holds %d lines, want %d", len(seen), cells)
	}

	// The store holds the artifacts, their prefix directories and the one
	// log — no per-run trace file, no leftover temp file.
	var files []string
	err = filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			files = append(files, d.Name())
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != cells+1 {
		t.Fatalf("store holds %d files after %d puts and %d traces, want %d (artifacts + traces.jsonl)", len(files), cells, cells, cells+1)
	}
	if n := artifactCount(t, s); n != cells {
		t.Fatalf("store lists %d artifacts, want %d (the span log is not one)", n, cells)
	}
	if st := s.Stats(); st.Puts != cells {
		t.Fatalf("Stats().Puts = %d, want %d (traces are not puts)", st.Puts, cells)
	}
}

// TestPutTraceAppendsOnRerun: the log is append-only — a second dump for the
// same fingerprint adds lines rather than replacing the first.
func TestPutTraceAppendsOnRerun(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpFor("rerun")
	if err := s.PutTrace(fp, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(s.root, "traces.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("an empty dump must not create the log (stat: %v)", err)
	}
	for i := 0; i < 2; i++ {
		if err := s.PutTrace(fp, []obs.Span{{Trace: fp, Name: "a"}, {Trace: fp, Name: "b"}}); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(filepath.Join(s.root, "traces.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 4 {
		t.Fatalf("log holds %d lines after two 2-span dumps, want 4:\n%s", n, data)
	}
	if err := s.PutTrace("../escape", []obs.Span{{Name: "x"}}); err == nil {
		t.Fatal("invalid fingerprint accepted")
	}
}
