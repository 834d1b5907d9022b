package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// A crash leaves the log with its preallocated zero tail still attached
// (only Close trims it). Reopening that file must recover every
// acknowledged record and must not report a tear — the zero tail is the
// expected shape of a live log, not damage.
func TestPreallocZeroTailIsCleanEnd(t *testing.T) {
	path := walPath(t)
	l, _ := openT(t, path)
	for _, id := range []string{"job-a", "job-b"} {
		if err := l.Append(Record{Type: TypeSubmit, Job: id, Spec: []byte(`{}`)}); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot the file as a crash would see it: durable frames followed by
	// the preallocated zeros, no Close to trim them.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) <= l.Size() {
		t.Fatalf("expected a preallocated tail: file %d bytes, framed %d", len(data), l.Size())
	}
	crashed := filepath.Join(t.TempDir(), "crashed.wal")
	if err := os.WriteFile(crashed, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l2, rec := openT(t, crashed)
	defer l2.Close()
	if rec.Torn {
		t.Fatalf("zero tail reported as torn: %+v", rec)
	}
	if ids := jobIDs(rec); len(ids) != 2 || ids[0] != "job-a" || ids[1] != "job-b" {
		t.Fatalf("replayed %v, want job-a, job-b", ids)
	}
	// The reopened log appends on the framed boundary, not after the tail.
	if err := l2.Append(Record{Type: TypeSubmit, Job: "job-c", Spec: []byte(`{}`)}); err != nil {
		t.Fatal(err)
	}
}

// A frame torn mid-write with nothing but preallocated zeros after it is
// the crash signature: recovery truncates the tear and keeps the durable
// prefix.
func TestTornFrameThenZerosIsTruncated(t *testing.T) {
	keep := frameFor(Record{Type: TypeSubmit, Job: "job-keep", Spec: []byte(`{"x":1}`)})
	torn := frameFor(Record{Type: TypeSubmit, Job: "job-torn", Spec: []byte(`{"y":2}`)})
	data := []byte(fileMagic)
	data = append(data, keep...)
	data = append(data, torn[:len(torn)-3]...) // payload cut short…
	data = append(data, make([]byte, 4096)...) // …then the zeroed allocation
	path := filepath.Join(t.TempDir(), "torn.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, path)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("torn frame before zero tail not reported as a tear")
	}
	if ids := jobIDs(rec); len(ids) != 1 || ids[0] != "job-keep" {
		t.Fatalf("replayed %v, want job-keep only", ids)
	}
}

// A zero hole with intact frames after it means a batch whose pages hit
// disk out of order — the sync covering the hole never finished, so the
// frames beyond it were never acknowledged. That is a tear to truncate,
// never records to replay.
func TestZeroHoleBeforeFramesIsTornNotReplayed(t *testing.T) {
	first := frameFor(Record{Type: TypeSubmit, Job: "job-first", Spec: []byte(`{}`)})
	late := frameFor(Record{Type: TypeSubmit, Job: "job-late", Spec: []byte(`{}`)})
	data := []byte(fileMagic)
	data = append(data, first...)
	data = append(data, make([]byte, 64)...) // unpersisted page: still zero
	data = append(data, late...)             // later page that did persist
	path := filepath.Join(t.TempDir(), "hole.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec := openT(t, path)
	defer l.Close()
	if !rec.Torn {
		t.Fatal("zero hole before frames not reported as a tear")
	}
	ids := jobIDs(rec)
	for _, id := range ids {
		if id == "job-late" {
			t.Fatal("replayed a frame from beyond the zero hole")
		}
	}
	if len(ids) != 1 || ids[0] != "job-first" {
		t.Fatalf("replayed %v, want job-first only", ids)
	}
}

// Damage to a frame with real framed data after it is not a tear — the
// later frames prove the damaged one was once durable. The anti-bitrot
// contract holds under preallocation: fail closed.
func TestDamagedFrameBeforeFramesStaysCorrupt(t *testing.T) {
	a := frameFor(Record{Type: TypeSubmit, Job: "job-a", Spec: []byte(`{"n":1}`)})
	b := frameFor(Record{Type: TypeSubmit, Job: "job-b", Spec: []byte(`{"n":2}`)})
	data := []byte(fileMagic)
	data = append(data, a...)
	data[len(fileMagic)+headerLen+1] ^= 0x08 // corrupt a's payload
	data = append(data, b...)
	data = append(data, make([]byte, 1024)...) // preallocated tail too
	path := filepath.Join(t.TempDir(), "rot.wal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}
