// Package wal is the coordinator's write-ahead log: an append-only journal
// of the jobs it accepted — one submit record each — that lets a restarted
// coordinator rebuild its queue instead of dumping every submitted cell.
// Completion is not journaled: the artifact store is its record. The
// package is framing, group commit and compaction only: it hands the
// records back in order and does not know what a job is — what a record
// means is dispatch's queue.apply. The lease, requeue and complete types
// remain decodable, so a log written when the coordinator journaled every
// transition still opens; replay ignores them.
//
// On-disk format: a 6-byte magic header ("FWAL1\n") followed by
// length-prefixed frames —
//
//	u32le payload length | u32le CRC-32 (IEEE) of payload | payload
//
// where the payload is one record: a type byte followed by
// uvarint-length-prefixed job / worker / status / spec fields and a uvarint
// attempt counter. Every Append is fsync'd before it returns (concurrent
// appenders share one fsync via group commit), so an acknowledged
// submission survives power loss.
//
// Recovery semantics are deliberately asymmetric: a torn tail — a partial
// frame, or a checksum mismatch on the final frame — is the expected
// signature of a crash mid-append and is truncated away, while a checksum
// mismatch anywhere before the tail means the file was damaged after it
// was written (bit rot, truncation in the middle) and Open fails closed
// with ErrCorrupt rather than silently dropping acknowledged work.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fedwcm/internal/store"
)

// Type enumerates the record types. The coordinator writes TypeSubmit
// only; the other three were written by coordinators that journaled every
// job transition, and stay decodable so such a log still opens.
type Type uint8

const (
	// TypeSubmit journals a job the coordinator accepted (carries the spec).
	TypeSubmit Type = iota + 1
	// TypeLease was a lease grant (worker, post-grant attempt count).
	TypeLease
	// TypeRequeue was a job returning to the queue (attempt count).
	TypeRequeue
	// TypeComplete was a terminal outcome (status).
	TypeComplete
)

// Record is one journaled record.
type Record struct {
	Type     Type
	Job      string // fingerprint
	Worker   string // lease holder (TypeLease only)
	Attempts int    // leases granted so far (TypeLease / TypeRequeue; a compacted TypeSubmit of an older log)
	Status   string // terminal status (TypeComplete): "stored" or "failed"
	Spec     []byte // canonical spec JSON (TypeSubmit only)
}

// Recovery reports what Open found in an existing log.
type Recovery struct {
	Records   []Record // the valid prefix, in append order
	Torn      bool     // the log ended in a partial or half-written frame
	Truncated int64    // bytes dropped from the torn tail
}

// ErrCorrupt means the log is damaged before its tail: a record that was
// once durable no longer checksums. Open fails rather than replaying a
// partial history as if it were complete.
var ErrCorrupt = errors.New("wal: corrupt record")

// errClosed poisons appends after Close.
var errClosed = errors.New("wal: closed")

const (
	fileMagic = "FWAL1\n"
	headerLen = 8 // u32 length + u32 CRC-32, little-endian
	// maxRecord bounds one frame's payload. Specs are a few KB of canonical
	// JSON; anything claiming more is a corrupt length field, not a record.
	maxRecord = 8 << 20
	// preallocChunk is how far the file is extended ahead of the write
	// offset. Appends then land inside the allocated size, so the per-commit
	// sync is a data-only fdatasync instead of an fsync that must also
	// journal an inode size change — a filesystem journal commit the log
	// would otherwise share with every store.Put fsyncing artifacts on the
	// same disk. The zeroed tail doubles as the end-of-log marker: replay
	// stops at the first all-zero frame header, since a real frame is never
	// empty.
	preallocChunk = 1 << 20
)

// Log is an open write-ahead log. Append is safe for concurrent use;
// concurrent callers share fsyncs via group commit (one leader flushes the
// combined buffer while the rest wait on its generation).
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	buf     []byte     // frames appended but not yet flushed
	seq     uint64     // append generations buffered so far
	synced  uint64     // generations durably on disk
	syncing bool       // the background flush leader is running
	wait    *flushWait // outcome of the flush covering the current buffer
	off     int64      // write offset: end of the framed prefix
	alloc   int64      // preallocated file size (off <= alloc)
	err     error      // sticky: a failed write or fsync poisons the log
}

// flushWait carries one group commit's outcome to its waiters: done is
// closed once every frame buffered before the batch snapshot is durable
// (or the flush failed), and err is written before the close. Waiters
// block on the channel they captured while buffering and never reacquire
// l.mu afterwards — with hundreds of concurrent appenders, waking a cohort
// through a shared mutex is a lock convoy that costs more than the sync it
// waits on.
type flushWait struct {
	done chan struct{}
	err  error
}

// Open opens (creating if absent) the log at path, replays it, and returns
// the log positioned for appends plus what recovery found. A torn tail is
// truncated away and noted in Recovery; damage before the tail returns
// ErrCorrupt and no log.
func Open(path string) (*Log, *Recovery, error) {
	if path == "" {
		return nil, nil, fmt.Errorf("wal: empty path")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	rec, end, rerr := replay(f)
	if rerr != nil {
		f.Close()
		return nil, nil, rerr
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if end < info.Size() {
		// Torn or preallocated tail: drop it now so a later crash cannot
		// concatenate new frames onto half a frame and turn a benign tear
		// into ErrCorrupt.
		if err := f.Truncate(end); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
	}
	// replay left the descriptor at the old EOF; reposition onto the valid
	// prefix so the next write (magic or frame) lands on the boundary.
	if _, err := f.Seek(end, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if end == 0 {
		// Fresh (or fully torn) file: stamp the magic and make the file's
		// existence durable before any record is acknowledged.
		if _, err := f.Write([]byte(fileMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		end = int64(len(fileMagic))
	}
	// Extend ahead of the write offset (a sparse, all-zero tail) and journal
	// the new size once, so steady-state commits are data-only fdatasyncs.
	alloc := end + preallocChunk
	if err := f.Truncate(alloc); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: preallocating: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	if err := store.SyncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{f: f, path: path, off: end, alloc: alloc}
	l.wait = &flushWait{done: make(chan struct{})}
	return l, rec, nil
}

// Append journals the records and returns once they are durable. Multiple
// records in one call land atomically with respect to recovery ordering
// (they share one flush). An error is sticky: once a write or fsync fails
// the log refuses further appends, so callers fail closed instead of
// acknowledging work that was never persisted.
func (l *Log) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	var frames []byte
	for i := range recs {
		frames = appendFrame(frames, &recs[i])
	}
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return err
	}
	l.buf = append(l.buf, frames...)
	l.seq++
	if !l.syncing {
		l.syncing = true
		go l.flushLoop()
	}
	// Capturing the wait in the same critical section as the buffering
	// guarantees the flush that rotates it covers our frames; the channel
	// close is the durability (or failure) signal.
	w := l.wait
	l.mu.Unlock()
	<-w.done
	return w.err
}

// flushLoop is the background commit leader spawned by the first append
// that finds no leader running: it drains the buffer in write+sync batches
// until nothing is pending, so a burst of appends amortizes into a handful
// of syncs instead of one per record. Entered with l.syncing already
// claimed by the spawner. On exit the current wait is rotated and closed:
// when the buffer drained cleanly no appender can hold it with unflushed
// frames (buffering and capture share one critical section, and every
// buffered frame was snapshotted), so only Close/Compact-style observers
// wake; on a sticky error it fails any waiters the dying flush stranded.
func (l *Log) flushLoop() {
	l.mu.Lock()
	for l.err == nil && len(l.buf) > 0 {
		l.flushBatchLocked()
	}
	w := l.wait
	l.wait = &flushWait{done: make(chan struct{})}
	w.err = l.err
	close(w.done)
	l.syncing = false
	l.mu.Unlock()
}

// accumulateWindow bounds how long a commit leader waits for concurrent
// appenders to land in the buffer before flushing. Without it the leader
// fires the moment it claims the token — routinely committing a one-record
// batch while the rest of a woken submitter cohort is still being
// scheduled, which degrades group commit into sync-per-record. The window
// only applies when more than one append generation is pending, so a lone
// appender pays nothing. Accumulation yields the processor rather than
// sleeping: timer sleeps on Linux round up to ~1ms, an order of magnitude
// more than the sync they'd be amortizing.
const accumulateWindow = 200 * time.Microsecond

// flushBatchLocked writes and syncs everything buffered so far on behalf
// of every waiter. The caller holds l.mu with l.syncing claimed; the lock
// is dropped around the IO so appenders can keep buffering into the next
// batch, and waiters are woken once the batch's generation is durable.
// Inside the preallocated region the sync is a data-only fdatasync; when
// the batch would outgrow the allocation, the file is extended first and
// that extension's size change is journaled by a full fsync.
func (l *Log) flushBatchLocked() {
	if l.seq-l.synced > 1 {
		// Concurrent appenders in flight: give stragglers a short window to
		// join this batch instead of each paying their own sync. Yield until
		// the buffer stops growing or the window closes.
		deadline := time.Now().Add(accumulateWindow)
		for {
			n := len(l.buf)
			l.mu.Unlock()
			for i := 0; i < 8; i++ {
				runtime.Gosched()
			}
			l.mu.Lock()
			if len(l.buf) == n || l.err != nil || time.Now().After(deadline) {
				break
			}
		}
	}
	batch := l.buf
	flushed := l.seq
	// Rotate the wait at snapshot time: every waiter that buffered before
	// this point holds w (closed below, once the batch is durable); anyone
	// arriving during the IO parks on the fresh one for the next flush.
	w := l.wait
	l.wait = &flushWait{done: make(chan struct{})}
	l.buf = nil
	f, off, alloc := l.f, l.off, l.alloc
	l.mu.Unlock()
	var ferr error
	grew := false
	if off+int64(len(batch)) > alloc {
		alloc = off + int64(len(batch)) + preallocChunk
		ferr = f.Truncate(alloc)
		grew = true
	}
	if ferr == nil {
		if _, werr := f.Write(batch); werr != nil {
			ferr = werr
		} else if grew {
			ferr = f.Sync()
		} else {
			ferr = datasync(f)
		}
	}
	l.mu.Lock()
	if ferr != nil {
		l.err = fmt.Errorf("wal: append: %w", ferr)
		w.err = l.err
	} else {
		l.off = off + int64(len(batch))
		l.alloc = alloc
		if l.synced < flushed {
			l.synced = flushed
		}
	}
	close(w.done)
}

// Size returns the framed length of the log — the bytes replay would scan,
// excluding any unflushed buffer and the preallocated zero tail.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.off
}

// Compact atomically replaces the log's contents with live: a fresh file
// is written beside the log, fsync'd, and renamed over it. The caller must
// guarantee no concurrent Append (the coordinator holds its WAL gate
// exclusively during checkpoints); live is one TypeSubmit per non-terminal
// job.
func (l *Log) Compact(live []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		w := l.wait
		l.mu.Unlock()
		<-w.done
		l.mu.Lock()
	}
	if l.err != nil {
		return l.err
	}
	dir := filepath.Dir(l.path)
	tmp, err := os.CreateTemp(dir, ".wal-compact-*")
	if err != nil {
		return fmt.Errorf("wal: compact: %w", err)
	}
	frames := []byte(fileMagic)
	for i := range live {
		frames = appendFrame(frames, &live[i])
	}
	_, werr := tmp.Write(frames)
	if werr == nil {
		// Preallocate the replacement like Open does, so appends after the
		// checkpoint stay on the data-only sync path.
		werr = tmp.Truncate(int64(len(frames)) + preallocChunk)
	}
	if werr == nil {
		werr = store.SyncFile(tmp)
	}
	if werr != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", werr)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("wal: compact: %w", err)
	}
	if err := store.SyncDir(dir); err != nil {
		tmp.Close()
		return fmt.Errorf("wal: compact: %w", err)
	}
	// tmp's descriptor now names the live log file (the rename moved the
	// inode, not the handle); adopt it and retire the old one.
	l.f.Close()
	l.f = tmp
	l.off = int64(len(frames))
	l.alloc = l.off + preallocChunk
	return nil
}

// Close waits out a running flush, then releases the file. Further
// appends fail.
func (l *Log) Close() error {
	l.mu.Lock()
	for l.syncing {
		w := l.wait
		l.mu.Unlock()
		<-w.done
		l.mu.Lock()
	}
	f := l.f
	off := l.off
	clean := l.err == nil
	l.f = nil
	if l.err == nil {
		l.err = errClosed
	}
	// Fail anyone racing an append against Close rather than stranding them.
	w := l.wait
	l.wait = &flushWait{done: make(chan struct{})}
	w.err = l.err
	close(w.done)
	l.mu.Unlock()
	if f != nil {
		if clean {
			// Trim the preallocated zero tail so the closed file ends at the
			// framed prefix (a reopen re-extends it).
			if err := f.Truncate(off); err == nil {
				f.Sync()
			}
		}
		return f.Close()
	}
	return nil
}

// allZero reports whether b holds only zero bytes — the signature of the
// untouched preallocated region.
func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// --- encoding ---

func appendFrame(dst []byte, r *Record) []byte {
	payload := encodePayload(r)
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

func encodePayload(r *Record) []byte {
	out := []byte{byte(r.Type)}
	out = appendString(out, r.Job)
	out = appendString(out, r.Worker)
	out = binary.AppendUvarint(out, uint64(max(r.Attempts, 0)))
	out = appendString(out, r.Status)
	out = appendString(out, string(r.Spec))
	return out
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func decodePayload(p []byte) (Record, error) {
	var r Record
	if len(p) < 1 {
		return r, fmt.Errorf("%w: empty payload", ErrCorrupt)
	}
	switch r.Type = Type(p[0]); r.Type {
	case TypeSubmit, TypeLease, TypeRequeue, TypeComplete: // every type a log may hold
	default:
		return r, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, p[0])
	}
	p = p[1:]
	var err error
	if r.Job, p, err = readString(p); err != nil {
		return r, err
	}
	if r.Worker, p, err = readString(p); err != nil {
		return r, err
	}
	att, n := binary.Uvarint(p)
	if n <= 0 || att > 1<<31 {
		return r, fmt.Errorf("%w: bad attempt varint", ErrCorrupt)
	}
	r.Attempts = int(att)
	p = p[n:]
	if r.Status, p, err = readString(p); err != nil {
		return r, err
	}
	var spec string
	if spec, p, err = readString(p); err != nil {
		return r, err
	}
	if spec != "" {
		r.Spec = []byte(spec)
	}
	if len(p) != 0 {
		return r, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(p))
	}
	return r, nil
}

func readString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", nil, fmt.Errorf("%w: bad string field", ErrCorrupt)
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}

// --- replay ---

// replay scans f from the start and decodes every valid record. It returns
// the recovery summary and the byte offset of the valid prefix (everything
// past it is a torn tail the caller truncates).
func replay(f *os.File) (*Recovery, int64, error) {
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return nil, 0, fmt.Errorf("wal: %w", err)
	}
	rec := &Recovery{}
	if len(data) < len(fileMagic) {
		// Nothing, or a tear inside the magic itself (crash between create
		// and the header fsync): recover to an empty log.
		rec.Torn = len(data) > 0
		rec.Truncated = int64(len(data))
		return rec, 0, nil
	}
	if string(data[:len(fileMagic)]) != fileMagic {
		return nil, 0, fmt.Errorf("%w: bad file header", ErrCorrupt)
	}
	off := len(fileMagic)
	for off < len(data) {
		if len(data)-off < headerLen {
			rec.Torn, rec.Truncated = true, int64(len(data)-off)
			break
		}
		plen := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if plen == 0 && sum == 0 {
			// An all-zero header is the preallocated tail: the clean end of
			// the log (a real frame is never empty). Frames beyond it mean a
			// batch whose pages persisted out of order before the crash —
			// the sync covering this hole never completed, so nothing past
			// it was ever acknowledged: truncate as a tear, don't replay it.
			if !allZero(data[off:]) {
				rec.Torn, rec.Truncated = true, int64(len(data)-off)
			}
			break
		}
		if plen > maxRecord {
			if allZero(data[off+headerLen:]) {
				// A header torn mid-write, followed by nothing but the zeroed
				// allocation: the crash signature, not damage.
				rec.Torn, rec.Truncated = true, int64(len(data)-off)
				break
			}
			return nil, 0, fmt.Errorf("%w: frame at offset %d claims %d bytes", ErrCorrupt, off, plen)
		}
		if uint32(len(data)-off-headerLen) < plen {
			rec.Torn, rec.Truncated = true, int64(len(data)-off)
			break
		}
		payload := data[off+headerLen : off+headerLen+int(plen)]
		if crc32.ChecksumIEEE(payload) != sum {
			if allZero(data[off+headerLen+int(plen):]) {
				// The final frame (nothing but preallocated zeros after it):
				// indistinguishable from a crash that tore the payload write.
				// Truncate, don't fail. Framed data after the mismatch means
				// damage to something that was once durable.
				rec.Torn, rec.Truncated = true, int64(len(data)-off)
				break
			}
			return nil, 0, fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		r, derr := decodePayload(payload)
		if derr != nil {
			return nil, 0, fmt.Errorf("wal: frame at offset %d: %w", off, derr)
		}
		rec.Records = append(rec.Records, r)
		off += headerLen + int(plen)
	}
	return rec, int64(off), nil
}
