// Package wal is the segmented write-ahead log behind simrankd's crash
// recovery: every committed mutation batch — link updates, node growth,
// recompute markers — is appended as one epoch-tagged, CRC-protected
// record *before* the MVCC view that exposes it publishes. Because
// Inc-SR is deterministic (bit-identical replay is pinned by
// the repository's equivalence harnesses), restoring the newest
// snapshot and replaying the log tail above its epoch reproduces the
// exact pre-crash store.
//
// On-disk layout: a directory of segment files named
// "<firstEpoch>.wal" (20-digit zero-padded decimal, so lexicographic
// order is epoch order). Each segment is a sequence of records:
//
//	u32 payload length | u32 crc32(IEEE) of payload | payload
//	payload = u64 epoch | u8 kind | kind-specific body
//
// Kinds: KindUpdate (one unit update: from u32, to u32, op u8),
// KindBatch (count u32, then count updates — one coalesced drain
// cycle, replayed through the same ApplyBatch entry point so the
// recompute crossover reproduces), KindAddNodes (count u32) and
// KindRecompute (no body).
//
// Recovery is paranoid by construction:
//
//   - A torn tail — a partial record at the end of the *last* segment,
//     the signature of a crash mid-append — is truncated away cleanly:
//     the log resumes at the last intact record, never errors, never
//     silently keeps garbage.
//   - A corrupt record anywhere *before* the tail (a CRC mismatch or
//     impossible length followed by more data, or any damage in a
//     non-final segment) fails loudly: that is disk corruption or
//     operator error, not a crash artifact, and replaying past it
//     would silently diverge from the acknowledged stream.
//   - Record epochs must be strictly increasing across the whole log
//     and each segment's name must match its first record — an epoch
//     regression or a reordered segment fails Open rather than
//     replaying out of order. A missing record is invisible here: a
//     Batch record advances the epoch by 1 or by its length, which only
//     the engine knows, so the engine's replay checks each record's
//     epoch step instead.
//
// Durability policy is configurable (SyncPolicy): SyncAlways fsyncs
// every append (group commit comes for free upstream — the coalescing
// pipeline folds every request of a drain cycle into ONE record, so
// one fsync acknowledges the whole cycle), SyncInterval fsyncs on a
// background timer plus whenever a synchronous writer demands it
// (Sync), SyncNone leaves flushing to the OS entirely.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Kind discriminates the logged operation of one record.
type Kind uint8

const (
	// KindUpdate is a single unit update committed through Apply —
	// replayed through Apply, never through ApplyBatch, so the
	// incremental-vs-recompute choice matches the original run.
	KindUpdate Kind = 1
	// KindBatch is one committed ApplyBatch call (one coalesced drain
	// cycle of the write pipeline).
	KindBatch Kind = 2
	// KindAddNodes grew the graph by Count isolated nodes.
	KindAddNodes Kind = 3
	// KindRecompute marks an explicit from-scratch recomputation.
	KindRecompute Kind = 4
)

func (k Kind) String() string {
	switch k {
	case KindUpdate:
		return "update"
	case KindBatch:
		return "batch"
	case KindAddNodes:
		return "addnodes"
	case KindRecompute:
		return "recompute"
	case KindHeartbeat:
		return "heartbeat"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Record is one logged operation, tagged with the engine epoch observed
// immediately after the operation committed (the epoch the MVCC view
// publishing it carries). Replay applies the operation and then forces
// the engine's epoch to Epoch, so epoch numbering survives a restart.
type Record struct {
	Epoch   uint64
	Kind    Kind
	Updates []graph.Update // KindUpdate (len 1) and KindBatch
	Count   int            // KindAddNodes
}

// SyncPolicy says when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every Append: an acknowledged write is a
	// durable write. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (Options.SyncInterval)
	// and whenever Sync is called explicitly (the pipeline calls it
	// before acknowledging ?wait=1 writers — group commit). A crash can
	// lose at most the last interval of fire-and-forget writes.
	SyncInterval
	// SyncNone never fsyncs; the OS flushes when it pleases. Fastest,
	// and a crash may lose anything not yet flushed — for workloads
	// where the WAL is a convenience, not a contract.
	SyncNone
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("syncpolicy(%d)", int(p))
}

// ParseSyncPolicy parses the -wal-sync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf(`wal: unknown sync policy %q (want "always", "interval" or "none")`, s)
}

// Options tunes a WAL. The zero value is usable: 64 MiB segments,
// fsync on every append.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// has reached this many bytes (default 64 MiB). Rotation happens on
	// record boundaries — a record never straddles two segments.
	SegmentBytes int64
	// Sync is the fsync policy (default SyncAlways).
	Sync SyncPolicy
	// SyncInterval is the background fsync period under SyncInterval
	// (default 50ms; ignored otherwise).
	SyncInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SyncInterval <= 0 {
		o.SyncInterval = 50 * time.Millisecond
	}
	return o
}

// Stats is the WAL's observability snapshot, served as the /stats
// wal_* fields.
type Stats struct {
	// Segments and Bytes describe the on-disk footprint right now.
	Segments int
	Bytes    int64
	// LastEpoch is the epoch of the newest record (0 when empty).
	LastEpoch uint64
	// Appends and Fsyncs count operations over the handle's lifetime.
	Appends int64
	Fsyncs  int64
	// TornBytes is how many trailing bytes recovery truncated away at
	// Open — nonzero exactly when the previous process died mid-append.
	TornBytes int64
	// TruncatedThrough is the highest record epoch removed by Truncate
	// over this handle's lifetime (0 when nothing was dropped): the
	// replication streaming floor. A follower asking for records at or
	// below it cannot be served from this log and must re-seed from a
	// snapshot; the in-memory bound resets at restart, when the oldest
	// retained segment becomes the only (weaker) signal.
	TruncatedThrough uint64
}

const (
	recordHeaderBytes = 8       // u32 length + u32 crc
	maxRecordBytes    = 1 << 28 // sanity bound against garbage lengths
	readStepBytes     = 1 << 16 // payload read step: growth tracks arrived bytes
	segmentSuffix     = ".wal"
)

var crcTable = crc32.IEEETable

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// segment is the metadata of one validated on-disk segment file.
type segment struct {
	path       string
	firstEpoch uint64 // also encoded in the file name
	lastEpoch  uint64
	bytes      int64
	records    int
}

// WAL is an open write-ahead log rooted at one directory. Safe for
// concurrent use; in simrankd a single writer (the pipeline drain
// goroutine, via the engine's commit hook) appends.
type WAL struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segments []segment
	tail     *os.File // open handle on the last segment (nil when empty)
	tailSize int64
	last     uint64 // newest record epoch (0 when empty)
	dirty    bool   // unsynced appended bytes
	closed   bool
	// failed is the first error of a tail write, an fsync, a segment
	// create or seal, or a directory sync, or an over-size record. Once
	// set, Append and Sync return it and touch no file: past such a
	// failure the disk may hold a torn frame or miss a record, and an
	// append after it would bury the one or write a gap.
	failed error

	appends   atomic.Int64
	fsyncs    atomic.Int64
	tornBytes int64
	truncated uint64 // highest epoch dropped by Truncate (see Stats)

	// buf is the reused append encoding buffer.
	buf []byte

	// stopSync terminates the SyncInterval background flusher.
	stopSync chan struct{}
	syncDone chan struct{}
}

// Open validates the log at dir (creating the directory if needed) and
// returns a handle positioned to append after the newest intact record.
// Recovery semantics: a torn record at the very tail of the final
// segment is truncated away (Stats.TornBytes reports how much); any
// other damage — a corrupt mid-log record, an epoch regression, a
// misnamed segment — returns an error and leaves the files untouched.
func Open(dir string, opts Options) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	w := &WAL{dir: dir, opts: opts}
	if err := w.scan(); err != nil {
		return nil, err
	}
	if len(w.segments) > 0 {
		tail := &w.segments[len(w.segments)-1]
		f, err := os.OpenFile(tail.path, os.O_WRONLY, 0)
		if err != nil {
			return nil, fmt.Errorf("wal: open tail: %w", err)
		}
		if _, err := f.Seek(tail.bytes, io.SeekStart); err != nil {
			// Error-path cleanup; the seek failure is what gets reported.
			_ = f.Close()
			return nil, fmt.Errorf("wal: seek tail: %w", err)
		}
		w.tail = f
		w.tailSize = tail.bytes
	}
	if opts.Sync == SyncInterval {
		w.stopSync = make(chan struct{})
		w.syncDone = make(chan struct{})
		go w.syncLoop()
	}
	return w, nil
}

// segmentName renders the canonical file name of a segment whose first
// record has the given epoch.
func segmentName(firstEpoch uint64) string {
	return fmt.Sprintf("%020d%s", firstEpoch, segmentSuffix)
}

// parseSegmentName extracts the first-record epoch a segment file name
// claims.
func parseSegmentName(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segmentSuffix)
	if !ok || len(base) != 20 {
		return 0, false
	}
	v, err := strconv.ParseUint(base, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// scan lists, orders and validates every segment, truncating a torn
// tail on the final one and populating w.segments / w.last.
func (w *WAL) scan() error {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	var segs []segment
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		epoch, ok := parseSegmentName(e.Name())
		if !ok {
			if strings.HasSuffix(e.Name(), segmentSuffix) {
				return fmt.Errorf("wal: segment %q has a malformed name", e.Name())
			}
			continue // unrelated file; leave it alone
		}
		segs = append(segs, segment{path: filepath.Join(w.dir, e.Name()), firstEpoch: epoch})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstEpoch < segs[j].firstEpoch })
	prevEpoch := uint64(0)
	for i := range segs {
		s := &segs[i]
		final := i == len(segs)-1
		if err := w.validateSegment(s, final, &prevEpoch); err != nil {
			return err
		}
		if s.records == 0 && !final {
			return fmt.Errorf("wal: segment %s is empty but not the tail", filepath.Base(s.path))
		}
	}
	// A tail segment with no intact records (an empty file from a crash
	// mid-creation, or a first record torn away above) must go: its name
	// promises a first epoch the next append would not deliver.
	if n := len(segs); n > 0 && segs[n-1].records == 0 {
		if err := os.Remove(segs[n-1].path); err != nil {
			return fmt.Errorf("wal: remove recordless tail segment: %w", err)
		}
		if err := syncPath(w.dir); err != nil {
			return fmt.Errorf("wal: sync dir: %w", err)
		}
		segs = segs[:n-1]
	}
	w.segments = segs
	w.last = prevEpoch
	return nil
}

// validateSegment reads every record of one segment, checking framing,
// CRC, the strictly-increasing epoch chain (threaded via prevEpoch) and
// the name/first-record agreement. On the final segment a trailing
// invalid record is truncated away; anywhere else it is fatal.
func (w *WAL) validateSegment(s *segment, final bool, prevEpoch *uint64) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close() //simrank:errok read-only validation pass; nothing written through this handle
	info, err := f.Stat()
	if err != nil {
		return fmt.Errorf("wal: stat segment: %w", err)
	}
	size := info.Size()
	r := newRecordReader(f)
	offset := int64(0)
	for {
		rec, n, err := r.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			// Only the torn-write signature of a crash mid-append may be
			// truncated away: a frame that runs off the end of the file, or
			// a checksum-failing frame that is the LAST thing in the file
			// (a partial page write). Damage with intact data after it, or
			// a checksum-valid record that decodes to nonsense, is disk
			// corruption — silently dropping it would drop acknowledged
			// records, so it fails loudly instead.
			torn := errors.Is(err, errTornFrame) ||
				(errors.Is(err, errChecksum) && offset+int64(n) == size)
			if !final || !torn {
				return fmt.Errorf("wal: segment %s: corrupt record at offset %d: %v (mid-log damage, refusing to truncate)", filepath.Base(s.path), offset, err)
			}
			tornBytes := size - offset
			if terr := os.Truncate(s.path, offset); terr != nil {
				return fmt.Errorf("wal: truncate torn tail of %s: %w", filepath.Base(s.path), terr)
			}
			if terr := syncPath(s.path); terr != nil {
				return fmt.Errorf("wal: sync truncated tail: %w", terr)
			}
			w.tornBytes += tornBytes
			size = offset
			break
		}
		if s.records == 0 && rec.Epoch != s.firstEpoch {
			return fmt.Errorf("wal: segment %s claims first epoch %d but starts with record epoch %d", filepath.Base(s.path), s.firstEpoch, rec.Epoch)
		}
		if rec.Epoch <= *prevEpoch {
			return fmt.Errorf("wal: epoch %d at %s offset %d does not advance past %d (regression or reordering — refusing to replay)", rec.Epoch, filepath.Base(s.path), offset, *prevEpoch)
		}
		*prevEpoch = rec.Epoch
		s.lastEpoch = rec.Epoch
		s.records++
		offset += int64(n)
	}
	s.bytes = size
	if offset != size {
		// Only reachable when io.EOF arrived exactly at a record edge yet
		// bytes remain — defensive; next() reports partial reads as errors.
		return fmt.Errorf("wal: segment %s: %d trailing bytes after last record", filepath.Base(s.path), size-offset)
	}
	return nil
}

// Replay streams every intact record with epoch strictly greater than
// from, in order, to fn; fn returning an error stops the replay and
// returns that error. A from at or above the newest record epoch — a
// snapshot newer than the log tail — is a clean no-op. Replay reads the
// validated on-disk state and may be called at any time, but the
// intended sequence is Open → Replay → Appends.
func (w *WAL) Replay(from uint64, fn func(*Record) error) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	segs := append([]segment(nil), w.segments...)
	w.mu.Unlock()

	prev := from
	for _, s := range segs {
		if s.records == 0 || s.lastEpoch <= from {
			continue // entirely covered by the snapshot
		}
		if err := replaySegment(s, from, &prev, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(s segment, from uint64, prev *uint64, fn func(*Record) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return fmt.Errorf("wal: open segment: %w", err)
	}
	defer f.Close() //simrank:errok read-only replay; nothing written through this handle
	r := newRecordReader(io.LimitReader(f, s.bytes))
	for {
		rec, _, err := r.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("wal: segment %s changed under replay: %v", filepath.Base(s.path), err)
		}
		if rec.Epoch <= from {
			continue
		}
		if rec.Epoch <= *prev {
			return fmt.Errorf("wal: replay epoch %d does not advance past %d", rec.Epoch, *prev)
		}
		*prev = rec.Epoch
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// Append logs one record durably according to the sync policy. The
// record's epoch must advance past every record already logged — the
// ordering replay relies on. A closed log, a heartbeat or an epoch that
// does not advance is refused for this call only. Any other failure
// fails the log: this and every later Append and Sync return the first
// error, so the log ends at the last record written whole, and the next
// Open truncates whatever part of a frame the failure left behind. Safe
// for concurrent use; calls are serialized internally.
func (w *WAL) Append(rec *Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	if rec.Kind == KindHeartbeat {
		// Heartbeats are stream liveness frames, not operations: storing
		// one would poison replay (applyWALRecord has nothing to apply).
		return fmt.Errorf("wal: refusing to append a stream heartbeat frame")
	}
	if rec.Epoch <= w.last {
		return fmt.Errorf("wal: record epoch %d does not advance past %d", rec.Epoch, w.last)
	}
	w.buf = appendRecord(w.buf[:0], rec)
	if len(w.buf) > maxRecordBytes {
		// The caller has committed the mutation already; logging the
		// next one would leave a gap where this record belongs.
		return w.fail(fmt.Errorf("wal: record of %d bytes exceeds the %d-byte bound", len(w.buf), maxRecordBytes))
	}
	if err := w.rotateLocked(rec.Epoch); err != nil {
		return w.fail(err)
	}
	if _, err := w.tail.Write(w.buf); err != nil {
		// A short write leaves a torn tail exactly like a crash would.
		return w.fail(fmt.Errorf("wal: append: %w", err))
	}
	n := int64(len(w.buf))
	w.tailSize += n
	t := &w.segments[len(w.segments)-1]
	t.bytes += n
	t.lastEpoch = rec.Epoch
	t.records++
	w.last = rec.Epoch
	w.appends.Add(1)
	w.dirty = true
	if w.opts.Sync == SyncAlways {
		return w.syncLocked()
	}
	return nil
}

// rotateLocked makes sure an open tail segment with room exists,
// sealing the current one (with a final fsync, so a sealed segment is
// immutable AND durable) and starting a fresh file named after epoch
// when the size budget is spent.
func (w *WAL) rotateLocked(epoch uint64) error {
	if w.tail != nil && w.tailSize < w.opts.SegmentBytes {
		return nil
	}
	if w.tail != nil {
		if err := w.syncLocked(); err != nil {
			return err
		}
		if err := w.tail.Close(); err != nil {
			return fmt.Errorf("wal: seal segment: %w", err)
		}
		w.tail = nil
	}
	path := filepath.Join(w.dir, segmentName(epoch))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	// The directory entry must survive a crash too, or the fsynced
	// records sit in a file no one can find.
	if err := syncPath(w.dir); err != nil {
		// Error-path cleanup of the just-created segment; the dir-sync
		// failure is what gets reported.
		_ = f.Close()
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	w.tail = f
	w.tailSize = 0
	w.segments = append(w.segments, segment{path: path, firstEpoch: epoch})
	return nil
}

// Policy reports the handle's effective fsync policy — the write
// pipeline consults it to decide whether ?wait=1 acknowledgements need
// an explicit group-commit Sync (SyncInterval) or already got one per
// append (SyncAlways) or deliberately get none (SyncNone).
func (w *WAL) Policy() SyncPolicy { return w.opts.Sync }

// Sync forces appended records to stable storage now, whatever the
// policy — the group-commit hook ?wait=1 acknowledgements ride on. On a
// failed log it returns the first error.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.syncLocked()
}

// syncLocked fsyncs the tail if it holds unsynced bytes. A failed fsync
// fails the log: a retry can report success after the kernel dropped
// the pages that did not reach the disk.
func (w *WAL) syncLocked() error {
	if w.failed != nil {
		return w.failed
	}
	if !w.dirty || w.tail == nil {
		return nil
	}
	if err := w.tail.Sync(); err != nil {
		return w.fail(fmt.Errorf("wal: fsync: %w", err))
	}
	w.dirty = false
	w.fsyncs.Add(1)
	return nil
}

// syncLoop is the SyncInterval background flusher.
func (w *WAL) syncLoop() {
	defer close(w.syncDone)
	t := time.NewTicker(w.opts.SyncInterval)
	defer t.Stop()
	for {
		select {
		case <-w.stopSync:
			return
		case <-t.C:
			w.mu.Lock()
			if !w.closed {
				w.syncLocked() // best-effort; Append/Sync surface errors
			}
			w.mu.Unlock()
		}
	}
}

// Truncate removes whole segments every record of which has epoch at
// most upto — called after a snapshot at epoch upto durably landed, so
// the log never regrows unboundedly. The active tail segment is always
// kept (empty logs confuse no one, missing append handles do).
func (w *WAL) Truncate(upto uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	kept := w.segments[:0]
	removed := false
	for i, s := range w.segments {
		isTail := i == len(w.segments)-1
		if !isTail && s.records > 0 && s.lastEpoch <= upto {
			if err := os.Remove(s.path); err != nil {
				return fmt.Errorf("wal: truncate: %w", err)
			}
			if s.lastEpoch > w.truncated {
				w.truncated = s.lastEpoch
			}
			removed = true
			continue
		}
		kept = append(kept, s)
	}
	w.segments = kept
	if removed {
		if err := syncPath(w.dir); err != nil {
			return w.fail(fmt.Errorf("wal: sync dir after truncate: %w", err))
		}
	}
	return nil
}

// fail records err as the log's failure unless an earlier one is
// recorded, and returns err.
func (w *WAL) fail(err error) error {
	if w.failed == nil {
		w.failed = err
	}
	return err
}

// Stats reports the log's current gauges and lifetime counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	st := Stats{
		Segments:         len(w.segments),
		LastEpoch:        w.last,
		Appends:          w.appends.Load(),
		Fsyncs:           w.fsyncs.Load(),
		TornBytes:        w.tornBytes,
		TruncatedThrough: w.truncated,
	}
	for _, s := range w.segments {
		st.Bytes += s.bytes
	}
	return st
}

// Close flushes and closes the log. Idempotent. On a failed log it
// closes the tail without a flush and returns the first error.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	err := w.syncLocked()
	if w.tail != nil {
		if cerr := w.tail.Close(); err == nil {
			err = cerr
		}
		w.tail = nil
	}
	w.closed = true
	stop := w.stopSync
	done := w.syncDone
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	return err
}

// appendRecord encodes rec (framing + payload) onto b.
func appendRecord(b []byte, rec *Record) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0, 0, 0, 0, 0) // length + crc placeholder
	b = binary.LittleEndian.AppendUint64(b, rec.Epoch)
	b = append(b, byte(rec.Kind))
	switch rec.Kind {
	case KindUpdate, KindBatch:
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rec.Updates)))
		for _, up := range rec.Updates {
			b = binary.LittleEndian.AppendUint32(b, uint32(up.Edge.From))
			b = binary.LittleEndian.AppendUint32(b, uint32(up.Edge.To))
			op := byte(0)
			if up.Insert {
				op = 1
			}
			b = append(b, op)
		}
	case KindAddNodes:
		b = binary.LittleEndian.AppendUint32(b, uint32(rec.Count))
	case KindRecompute:
	}
	payload := b[start+recordHeaderBytes:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(payload, crcTable))
	return b
}

// decodePayload parses one record payload (the bytes the CRC covers).
func decodePayload(p []byte) (*Record, error) {
	if len(p) < 9 {
		return nil, fmt.Errorf("payload of %d bytes is shorter than the epoch+kind prologue", len(p))
	}
	rec := &Record{
		Epoch: binary.LittleEndian.Uint64(p),
		Kind:  Kind(p[8]),
	}
	body := p[9:]
	switch rec.Kind {
	case KindUpdate, KindBatch:
		if len(body) < 4 {
			return nil, errors.New("truncated update count")
		}
		count := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if len(body) != count*9 {
			return nil, fmt.Errorf("update body holds %d bytes, want %d for %d updates", len(body), count*9, count)
		}
		if rec.Kind == KindUpdate && count != 1 {
			return nil, fmt.Errorf("unit-update record holds %d updates", count)
		}
		rec.Updates = make([]graph.Update, count)
		for i := range rec.Updates {
			rec.Updates[i] = graph.Update{
				Edge: graph.Edge{
					From: int(binary.LittleEndian.Uint32(body[i*9:])),
					To:   int(binary.LittleEndian.Uint32(body[i*9+4:])),
				},
				Insert: body[i*9+8] == 1,
			}
			if op := body[i*9+8]; op > 1 {
				return nil, fmt.Errorf("update %d has invalid op byte %d", i, op)
			}
		}
	case KindAddNodes:
		if len(body) != 4 {
			return nil, fmt.Errorf("addnodes body holds %d bytes, want 4", len(body))
		}
		rec.Count = int(binary.LittleEndian.Uint32(body))
	case KindRecompute:
		if len(body) != 0 {
			return nil, fmt.Errorf("recompute record carries %d unexpected body bytes", len(body))
		}
	case KindHeartbeat:
		// Stream-only (Append refuses it); decoded here so FrameReader
		// hands it to the replication client like any other frame.
		if len(body) != 0 {
			return nil, fmt.Errorf("heartbeat frame carries %d unexpected body bytes", len(body))
		}
	default:
		return nil, fmt.Errorf("unknown record kind %d", uint8(rec.Kind))
	}
	return rec, nil
}

// errTornFrame marks a frame that ran off the end of the file — the
// one failure a sequential crash mid-append can produce on its own
// (when fewer than 8 header bytes land, or the length field landed
// intact — it is a prefix of the true record — but the payload is
// short). errChecksum marks a fully-framed payload whose CRC fails; it
// is only a crash artifact when the frame is the last thing in the
// file (a partial page write inside the payload).
var (
	errTornFrame = errors.New("frame runs past end of file")
	errChecksum  = errors.New("record checksum mismatch")
)

// recordReader streams records off one segment, distinguishing a clean
// end (io.EOF exactly at a record boundary) from damage (anything
// else). The reported size n is the full framed record length; on an
// errChecksum failure n is still reported so the caller can tell a
// tail frame from a mid-log one.
type recordReader struct {
	r   io.Reader
	hdr [recordHeaderBytes]byte
	buf []byte
}

func newRecordReader(r io.Reader) *recordReader { return &recordReader{r: r} }

func (rr *recordReader) next() (rec *Record, n int, err error) {
	if _, err := io.ReadFull(rr.r, rr.hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF // clean boundary
		}
		return nil, 0, fmt.Errorf("%w: short header: %v", errTornFrame, err)
	}
	length := binary.LittleEndian.Uint32(rr.hdr[:4])
	sum := binary.LittleEndian.Uint32(rr.hdr[4:])
	if length > maxRecordBytes {
		// A torn append cannot write a wrong length (a partial write leaves
		// a PREFIX of the record, and the length field is first), so a
		// garbage length is corruption, never truncatable.
		return nil, 0, fmt.Errorf("record length %d exceeds the %d-byte bound (garbage framing)", length, maxRecordBytes)
	}
	// The buffer grows only as payload bytes arrive, one bounded step at
	// a time: a header declaring a huge length over a short stream costs
	// at most one step, not the declared length.
	rr.buf = rr.buf[:0]
	for len(rr.buf) < int(length) {
		have := len(rr.buf)
		step := min(int(length)-have, readStepBytes)
		rr.buf = slices.Grow(rr.buf, step)[:have+step]
		if _, err := io.ReadFull(rr.r, rr.buf[have:]); err != nil {
			return nil, 0, fmt.Errorf("%w: short payload: %v", errTornFrame, err)
		}
	}
	n = recordHeaderBytes + int(length)
	if got := crc32.Checksum(rr.buf, crcTable); got != sum {
		return nil, n, fmt.Errorf("%w (stored %08x, computed %08x)", errChecksum, sum, got)
	}
	rec, err = decodePayload(rr.buf)
	if err != nil {
		return nil, 0, err
	}
	return rec, n, nil
}

// syncPath fsyncs a file or directory by path — the directory half of
// crash-safe file creation, rename and removal.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if closeErr := f.Close(); err == nil {
		// A Close failure here means the durability of the entry is
		// unproven — report it like a failed fsync, never drop it.
		err = closeErr
	}
	return err
}
