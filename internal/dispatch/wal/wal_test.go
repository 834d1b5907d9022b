package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

func openT(t *testing.T, path string) (*Log, *Recovery) {
	t.Helper()
	l, rec, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, rec
}

func walPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "coord.wal")
}

func TestAppendReplayRoundtrip(t *testing.T) {
	path := walPath(t)
	l, rec := openT(t, path)
	if len(rec.Records) != 0 {
		t.Fatalf("fresh log not empty: %+v", rec)
	}
	recs := []Record{
		{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{"cell":1}`)},
		{Type: TypeSubmit, Job: "job-b", Spec: []byte(`{"cell":2}`)},
		{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1},
		{Type: TypeSubmit, Job: "job-c", Spec: []byte(`{"cell":3}`)},
		{Type: TypeComplete, Job: "job-b", Status: "stored"},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	_, rec2 := openT(t, path)
	if rec2.Torn {
		t.Fatal("clean log reported torn")
	}
	wantRecords(t, rec2, recs)
}

// wantRecords asserts the replayed records are exactly want, field for field
// and in order.
func wantRecords(t *testing.T, rec *Recovery, want []Record) {
	t.Helper()
	if len(rec.Records) != len(want) {
		t.Fatalf("replayed %d records, want %d: %+v", len(rec.Records), len(want), rec.Records)
	}
	for i, w := range want {
		if !reflect.DeepEqual(rec.Records[i], w) {
			t.Errorf("record[%d] = %+v, want %+v", i, rec.Records[i], w)
		}
	}
}

// jobIDs lists the job of every replayed record, in order.
func jobIDs(rec *Recovery) []string {
	var ids []string
	for _, r := range rec.Records {
		ids = append(ids, r.Job)
	}
	return ids
}

func TestRequeueAndResubmitSemantics(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	// Every record type, with the fields each carries, comes back as written:
	// a job leased, expired (attempt consumed), re-leased, cleanly handed over
	// (attempt refunded); and an id completed, then submitted again. What that
	// history means — j pending with one attempt, k live in a fresh epoch — is
	// the queue's fold, pinned by dispatch's TestQueueApply on these records.
	recs := []Record{
		{Type: TypeSubmit, Job: "j", Spec: []byte(`{}`)},
		{Type: TypeLease, Job: "j", Worker: "w-1", Attempts: 1},
		{Type: TypeRequeue, Job: "j", Attempts: 1},
		{Type: TypeLease, Job: "j", Worker: "w-2", Attempts: 2},
		{Type: TypeRequeue, Job: "j", Attempts: 1},
		{Type: TypeSubmit, Job: "k", Spec: []byte(`{"v":1}`)},
		{Type: TypeComplete, Job: "k", Status: "failed"},
		{Type: TypeSubmit, Job: "k", Spec: []byte(`{"v":1}`)},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()

	_, rec := openT(t, path)
	wantRecords(t, rec, recs)
}

// appendGarbage simulates a crash mid-append by appending raw bytes.
func appendGarbage(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func TestTornTailIsTruncated(t *testing.T) {
	full := frameFor(Record{Type: TypeSubmit, Job: "job-torn", Spec: []byte(`{}`)})
	cases := []struct {
		name string
		tail []byte
	}{
		{"partial header", full[:3]},
		{"header only", full[:headerLen]},
		{"half payload", full[:headerLen+(len(full)-headerLen)/2]},
		{"flipped final payload", flip(full, len(full)-1)},
		{"flipped final crc", flip(full, 5)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := walPath(t)
			l, _ := openT(t, path)
			if err := l.Append(Record{Type: TypeSubmit, Job: "job-live", Spec: []byte(`{"x":1}`)}); err != nil {
				t.Fatal(err)
			}
			l.Close()
			appendGarbage(t, path, tc.tail)

			l2, rec := openT(t, path)
			if !rec.Torn {
				t.Fatal("tear not reported")
			}
			if rec.Truncated != int64(len(tc.tail)) {
				t.Fatalf("Truncated = %d, want %d", rec.Truncated, len(tc.tail))
			}
			if ids := jobIDs(rec); len(ids) != 1 || ids[0] != "job-live" {
				t.Fatalf("replayed %v, want the pre-tear record only", ids)
			}
			// The tail is physically gone: appends after recovery land on a
			// clean boundary and a third open sees no tear.
			if err := l2.Append(Record{Type: TypeSubmit, Job: "job-after", Spec: []byte(`{}`)}); err != nil {
				t.Fatal(err)
			}
			l2.Close()
			_, rec3 := openT(t, path)
			if rec3.Torn || len(rec3.Records) != 2 {
				t.Fatalf("post-recovery log unclean: %+v", rec3)
			}
		})
	}
}

func flip(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x40
	return out
}

func frameFor(r Record) []byte {
	return appendFrame(nil, &r)
}

// TestCorruptionCorpusFailsClosed replays a corpus of damaged logs: every
// variant must either refuse to open (ErrCorrupt) or recover exactly a
// prefix of the records that were written — a corrupt record is never
// applied, and records after it are never resurrected past an ErrCorrupt.
func TestCorruptionCorpusFailsClosed(t *testing.T) {
	base := walPath(t)
	l, _ := openT(t, base)
	ids := []string{"job-0", "job-1", "job-2", "job-3"}
	for _, id := range ids {
		if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{"n":1}`)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	clean, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	prefixSets := make(map[string]bool)
	for i := 0; i <= len(ids); i++ {
		prefixSets[fmt.Sprint(ids[:i])] = true
	}
	for i := 0; i < len(clean); i++ {
		for _, variant := range [][]byte{flip(clean, i), clean[:i]} {
			path := filepath.Join(t.TempDir(), "c.wal")
			if err := os.WriteFile(path, variant, 0o644); err != nil {
				t.Fatal(err)
			}
			l2, rec, err := Open(path)
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("byte %d: unexpected error class: %v", i, err)
				}
				continue // failed closed
			}
			got := jobIDs(rec)
			if !prefixSets[fmt.Sprint(got)] {
				t.Fatalf("byte %d: recovered %v — not a prefix of %v", i, got, ids)
			}
			l2.Close()
		}
	}
}

func TestMidFileBitFlipRefusesOpen(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: TypeSubmit, Job: fmt.Sprintf("job-%d", i), Spec: []byte(`{"padding":"xxxxxxxxxxxxxxxx"}`)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the FIRST record's payload: damage before the
	// tail means acknowledged history was lost, and Open must say so.
	data[len(fileMagic)+headerLen+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open on mid-file bit flip: err = %v, want ErrCorrupt", err)
	}
}

func TestCompactShrinksLog(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	for i := 0; i < 20; i++ {
		id := fmt.Sprintf("job-%02d", i)
		if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
		if i < 17 {
			if err := l.Append(Record{Type: TypeComplete, Job: id, Status: "stored"}); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := l.Size()
	live := []Record{
		{Type: TypeSubmit, Job: "job-17", Spec: []byte(`{}`)},
		{Type: TypeSubmit, Job: "job-18", Spec: []byte(`{}`), Attempts: 1},
		{Type: TypeLease, Job: "job-18", Worker: "w-9", Attempts: 1},
		{Type: TypeSubmit, Job: "job-19", Spec: []byte(`{}`)},
	}
	if err := l.Compact(live); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := l.Size(); after >= before {
		t.Fatalf("compaction grew the log: %d -> %d framed bytes", before, after)
	}
	// The compacted log still accepts appends on the swapped descriptor.
	if err := l.Append(Record{Type: TypeComplete, Job: "job-17", Status: "stored"}); err != nil {
		t.Fatalf("Append after Compact: %v", err)
	}
	l.Close()

	// The live set survives the swap record for record (job-18's lease
	// included), followed by what was appended after it.
	_, rec := openT(t, path)
	wantRecords(t, rec, append(live, Record{Type: TypeComplete, Job: "job-17", Status: "stored"}))
}

func TestConcurrentAppendGroupCommit(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	const goroutines, per = 8, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r := Record{Type: TypeSubmit, Job: fmt.Sprintf("job-%d-%d", g, i), Spec: []byte(`{}`)}
				if err := l.Append(r); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	l.Close()
	_, rec := openT(t, path)
	seen := map[string]bool{}
	for _, id := range jobIDs(rec) {
		seen[id] = true
	}
	if len(rec.Records) != goroutines*per || len(seen) != goroutines*per {
		t.Fatalf("recovered %d records / %d distinct jobs, want %d", len(rec.Records), len(seen), goroutines*per)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	l, _ := openT(t, walPath(t))
	l.Close()
	if err := l.Append(Record{Type: TypeSubmit, Job: "j"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func FuzzReplay(f *testing.F) {
	var seed []byte
	seed = append(seed, fileMagic...)
	for _, r := range []Record{
		{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{"cell":1}`)},
		{Type: TypeLease, Job: "job-a", Worker: "w-1", Attempts: 1},
		{Type: TypeSubmit, Job: "job-b", Spec: []byte(`{"cell":2}`)},
		{Type: TypeComplete, Job: "job-a", Status: "stored"},
	} {
		seed = appendFrame(seed, &r)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(flipFuzz(seed, 10))
	f.Add(flipFuzz(seed, len(seed)-2))
	f.Add([]byte(fileMagic))
	f.Add([]byte("FWAL1\nnot frames at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "f.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, rec, err := Open(path)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("non-ErrCorrupt failure: %v", err)
			}
			return
		}
		l.Close()
		// Recovery is idempotent: reopening the (truncated) file replays the
		// identical state and reports no tear.
		l2, rec2, err := Open(path)
		if err != nil {
			t.Fatalf("second Open failed after first succeeded: %v", err)
		}
		defer l2.Close()
		if rec2.Torn {
			t.Fatal("second Open still torn — truncation not persisted")
		}
		if !reflect.DeepEqual(rec2.Records, rec.Records) {
			t.Fatalf("recovery not idempotent: %+v vs %+v", rec, rec2)
		}
	})
}

func flipFuzz(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0x20
	return out
}
