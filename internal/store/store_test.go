package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fedwcm/internal/fl"
)

func testHistory(seed float64) *fl.History {
	return &fl.History{
		Method: "fedwcm",
		Stats: []fl.RoundStat{
			{Round: 5, TestAcc: 0.4 + seed/100, TrainLoss: 1.2, PerClass: []float64{0.5, 0.3}, Metrics: map[string]float64{"alpha": 0.1}},
			{Round: 10, TestAcc: 0.6 + seed/100, TrainLoss: 0.8, PerClass: []float64{0.7, 0.5}},
		},
	}
}

// fpFor mints a valid content address from an arbitrary label. The store
// only cares that ids are 64-char lowercase hex; canonicalisation semantics
// are the sweep package's contract and are tested there
// (internal/sweep/fingerprint_test.go).
func fpFor(label string) string {
	sum := sha256.Sum256([]byte(label))
	return hex.EncodeToString(sum[:])
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	fp := fpFor("default")
	if _, ok, err := s.Get(fp); err != nil || ok {
		t.Fatalf("empty store Get: ok=%v err=%v", ok, err)
	}
	want := testHistory(1)
	if err := s.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(fp)
	if err != nil || !ok {
		t.Fatalf("Get after Put: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
	// The artifact lives where content addressing says it should.
	if _, err := os.Stat(filepath.Join(s.root, fp[:2], fp+".json")); err != nil {
		t.Fatal(err)
	}
}

func TestGetSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	fp := fpFor("default")
	want := testHistory(2)
	s1, _ := Open(dir, 0)
	if err := s1.Put(fp, want); err != nil {
		t.Fatal(err)
	}
	s2, _ := Open(dir, 0)
	got, ok, err := s2.Get(fp)
	if err != nil || !ok {
		t.Fatalf("reopened Get: ok=%v err=%v", ok, err)
	}
	if math.Abs(got.FinalAcc()-want.FinalAcc()) > 1e-12 || got.Method != want.Method {
		t.Fatalf("reopened history mismatch: %v vs %v", got, want)
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("expected one disk hit, got %+v", st)
	}
	// Second Get must come from the LRU.
	if _, _, err := s2.Get(fp); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("expected a mem hit, got %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, 2)
	fps := []string{
		fpFor("default"),
		fpFor("fedavg"),
		fpFor("fedcm"),
	}
	for i, fp := range fps {
		if err := s.Put(fp, testHistory(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Capacity 2: the first Put must have been evicted from memory but
	// still be readable from disk.
	if _, ok, err := s.Get(fps[0]); err != nil || !ok {
		t.Fatalf("evicted entry lost: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.DiskHits != 1 {
		t.Fatalf("eviction should force a disk read, stats %+v", st)
	}
}

func TestInvalidFingerprintRejected(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	for _, fp := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64)} {
		if err := s.Put(fp, testHistory(0)); err == nil {
			t.Fatalf("Put accepted invalid fingerprint %q", fp)
		}
		if _, _, err := s.Get(fp); err == nil {
			t.Fatalf("Get accepted invalid fingerprint %q", fp)
		}
		if p := s.Path(fp); p != "" {
			t.Fatalf("Path(%q) = %q, want empty", fp, p)
		}
	}
}

func TestPutRejectsEmptyHistory(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	fp := fpFor("default")
	if err := s.Put(fp, nil); err == nil {
		t.Fatal("Put accepted nil history")
	}
	// A zero-stat history cannot round-trip through the JSONL encoding
	// (Method would be lost) and must not become a permanent cache hit.
	if err := s.Put(fp, &fl.History{Method: "fedavg"}); err == nil {
		t.Fatal("Put accepted empty history")
	}
	if _, ok, err := s.Get(fp); err != nil || ok {
		t.Fatalf("rejected Put left an artifact: ok=%v err=%v", ok, err)
	}
}

// TestGetRejectsEmptyArtifact: a file without a single evaluation row is an
// undecodable artifact like any other — Put refuses to write one, a peer
// fetch refuses to accept one — not a cached cell of accuracy 0.
func TestGetRejectsEmptyArtifact(t *testing.T) {
	for name, content := range map[string]string{"zero-byte": "", "whitespace": " \n\t\n"} {
		t.Run(name, func(t *testing.T) {
			s, err := Open(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			fp := fpFor(name)
			if err := os.MkdirAll(filepath.Dir(s.Path(fp)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.Path(fp), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			h, ok, err := s.Get(fp)
			if err == nil || ok || h != nil {
				t.Fatalf("Get of an empty artifact = %+v, ok=%v, err=%v; want an error", h, ok, err)
			}
			if !strings.HasPrefix(err.Error(), "store: decode "+fp) {
				t.Fatalf("error %q does not name the decode", err)
			}
			if st := s.Stats(); st != (Stats{}) {
				t.Fatalf("a failed decode moved the counters: %+v", st)
			}
			if s.order.Len() != 0 || len(s.idx) != 0 {
				t.Fatalf("a failed decode entered the LRU (%d entries)", s.order.Len())
			}
		})
	}
}

// artifactCount counts the artifacts in the store directory: what would
// survive a restart, read from disk rather than the LRU.
func artifactCount(t *testing.T, s *Store) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(s.root, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fp, ok := strings.CutSuffix(d.Name(), ".json"); ok && ValidFingerprint(fp) {
				n++
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestKeysListsArtifacts: every Put leaves one artifact at Path(fp), which
// is how a restarted store (or an operator's ls) lists the keys it holds.
func TestKeysListsArtifacts(t *testing.T) {
	s, _ := Open(t.TempDir(), 0)
	for _, m := range []string{"fedavg", "fedcm", "fedwcm"} {
		fp := fpFor(m)
		if err := s.Put(fp, testHistory(0)); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(s.Path(fp)); err != nil {
			t.Fatalf("no artifact for %s: %v", m, err)
		}
	}
	if n := artifactCount(t, s); n != 3 {
		t.Fatalf("%d artifacts on disk, want 3", n)
	}
}

// TestEnsureDirRemembersPrefixes: a prefix directory goes through the
// stat/mkdir/root-fsync path once per store; afterwards puts under it go
// straight to the temp file.
func TestEnsureDirRemembersPrefixes(t *testing.T) {
	s, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	prefixes := make(map[string]struct{})
	for i := 0; i < 40; i++ {
		fp := fpFor(fmt.Sprintf("prefix-%d", i))
		prefixes[fp[:2]] = struct{}{}
		if err := s.Put(fp, testHistory(float64(i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Put(fp, testHistory(float64(i))); err != nil { // re-put: same prefix, already known
			t.Fatal(err)
		}
	}
	if len(s.dirs) != len(prefixes) {
		t.Fatalf("store remembers %d prefix directories, want %d", len(s.dirs), len(prefixes))
	}
	for p := range prefixes {
		if fi, err := os.Stat(filepath.Join(s.root, p)); err != nil || !fi.IsDir() {
			t.Fatalf("prefix %s: %v", p, err)
		}
	}
	// A reopened store starts with nothing remembered and re-learns existing
	// directories without recreating them.
	s2, err := Open(s.root, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(fpFor("prefix-0"), testHistory(0)); err != nil {
		t.Fatal(err)
	}
	if len(s2.dirs) != 1 {
		t.Fatalf("reopened store remembers %d prefixes after one put, want 1", len(s2.dirs))
	}
}
