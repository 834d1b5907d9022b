package store

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fedwcm/internal/fl"
	"fedwcm/internal/wire"
)

// keyedHistory mints a history whose contents encode its key, so a
// concurrent reader can verify it got the record it asked for and not a
// torn or cross-wired one.
func keyedHistory(key int) (fp string, acc float64) {
	return fpFor(fmt.Sprintf("concurrent-%d", key)), 0.25 + float64(key)/1000
}

// TestConcurrentGetPutWithEviction hammers one store from many goroutines
// with a key space far larger than the in-memory LRU, so Gets constantly
// fall through to disk, promote entries and evict others while Puts
// (including same-key re-Puts) race them. Run under `go test -race` in CI;
// the assertions catch lost and corrupted records, the race detector
// catches unsynchronised access.
func TestConcurrentGetPutWithEviction(t *testing.T) {
	s, err := Open(t.TempDir(), 4) // tiny LRU: eviction on nearly every op
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 16
		keys    = 24
		rounds  = 60
	)
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				key := (w*7 + i) % keys
				fp, acc := keyedHistory(key)
				if w%2 == 0 || i%5 == 0 {
					h := testHistory(0)
					h.Stats[0].TestAcc = acc
					if err := s.Put(fp, h); err != nil {
						errs <- fmt.Errorf("put %d: %w", key, err)
						return
					}
				}
				h, ok, err := s.Get(fp)
				if err != nil {
					errs <- fmt.Errorf("get %d: %w", key, err)
					return
				}
				if !ok {
					continue // not written yet; a miss is not a corruption
				}
				if len(h.Stats) != 2 || math.Abs(h.Stats[0].TestAcc-acc) > 1e-12 {
					errs <- fmt.Errorf("get %d: wrong or torn record: %+v", key, h.Stats)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every key that was ever Put must now be present and intact, both via
	// the cache and on disk (artifactCount walks the directory).
	for key := 0; key < keys; key++ {
		fp, acc := keyedHistory(key)
		h, ok, err := s.Get(fp)
		if err != nil || !ok {
			t.Fatalf("key %d lost after the hammer: ok=%v err=%v", key, ok, err)
		}
		if math.Abs(h.Stats[0].TestAcc-acc) > 1e-12 {
			t.Fatalf("key %d corrupted: %+v", key, h.Stats[0])
		}
	}
	if disk := artifactCount(t, s); disk != keys {
		t.Fatalf("disk holds %d artifacts, want %d", disk, keys)
	}
	st := s.Stats()
	if st.Puts == 0 || st.MemHits == 0 || st.DiskHits == 0 {
		t.Fatalf("hammer did not exercise all paths: %+v", st)
	}
}

// TestDiskGetEqualsPutConcurrently: with the LRU disabled every Get decodes
// the artifact file, and what it decodes is the history that was put —
// from eight goroutines at once, so the decoder shares nothing between calls.
// The fixtures are synchronous histories: an artifact carries no time/async
// (DESIGN.md "What an artifact does not carry").
func TestDiskGetEqualsPutConcurrently(t *testing.T) {
	dir := t.TempDir()
	writer, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	sample := wire.SampleHistory(20, 10)
	for i := range sample.Stats {
		sample.Stats[i].Time, sample.Stats[i].Async = 0, nil
	}
	shot := testHistory(3)
	shot.Stats[1].Shot = &fl.ShotAcc{Head: 0.9, Medium: 0.5, Tail: 0.125}
	want := map[string]*fl.History{
		fpFor("sample"): sample,
		fpFor("plain"):  testHistory(1),
		fpFor("shot"):   shot,
	}
	for fp, h := range want {
		if err := writer.Put(fp, h); err != nil {
			t.Fatal(err)
		}
	}
	s, err := Open(dir, -1)
	if err != nil {
		t.Fatal(err)
	}
	const readers, laps = 8, 20
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < laps; i++ {
				for fp, h := range want {
					got, ok, err := s.Get(fp)
					if err != nil || !ok {
						t.Errorf("Get %s: ok=%v err=%v", fp[:8], ok, err)
						return
					}
					if !reflect.DeepEqual(got, h) {
						t.Errorf("Get %s:\n got %+v\nwant %+v", fp[:8], got, h)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.DiskHits != int64(readers*laps*len(want)) || st.MemHits != 0 {
		t.Fatalf("every Get should have read the disk: %+v", st)
	}
}
