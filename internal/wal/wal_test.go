package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/graph"
)

func mustOpen(t *testing.T, dir string, opts Options) *WAL {
	t.Helper()
	w, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func upd(from, to int, insert bool) graph.Update {
	return graph.Update{Edge: graph.Edge{From: from, To: to}, Insert: insert}
}

func batchRec(epoch uint64, ups ...graph.Update) *Record {
	return &Record{Epoch: epoch, Kind: KindBatch, Updates: ups}
}

func collect(t *testing.T, w *WAL, from uint64) []*Record {
	t.Helper()
	var recs []*Record
	if err := w.Replay(from, func(r *Record) error {
		cp := *r
		cp.Updates = append([]graph.Update(nil), r.Updates...)
		recs = append(recs, &cp)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

// TestEmptyLog: Open on a fresh (and on a truly empty) directory is a
// clean no-op — no segments, no records, replay visits nothing.
func TestEmptyLog(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal") // does not exist yet
	w := mustOpen(t, dir, Options{})
	if got := collect(t, w, 0); len(got) != 0 {
		t.Fatalf("empty log replayed %d records", len(got))
	}
	st := w.Stats()
	if st.Segments != 0 || st.Bytes != 0 || st.LastEpoch != 0 {
		t.Fatalf("empty log stats = %+v", st)
	}
}

// TestAppendReplayRoundTrip: every record kind survives an append →
// close → reopen → replay cycle bit-for-bit.
func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	want := []*Record{
		{Epoch: 3, Kind: KindUpdate, Updates: []graph.Update{upd(0, 1, true)}},
		batchRec(7, upd(1, 2, true), upd(0, 1, false)),
		{Epoch: 8, Kind: KindAddNodes, Count: 5},
		{Epoch: 9, Kind: KindRecompute},
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatalf("Append(%v): %v", r.Kind, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2 := mustOpen(t, dir, Options{})
	got := collect(t, w2, 0)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		a, b := want[i], got[i]
		if a.Epoch != b.Epoch || a.Kind != b.Kind || a.Count != b.Count ||
			len(a.Updates) != len(b.Updates) {
			t.Fatalf("record %d: got %+v want %+v", i, b, a)
		}
		for j := range a.Updates {
			if a.Updates[j] != b.Updates[j] {
				t.Fatalf("record %d update %d: got %v want %v", i, j, b.Updates[j], a.Updates[j])
			}
		}
	}
	if st := w2.Stats(); st.LastEpoch != 9 || st.Segments != 1 || st.TornBytes != 0 {
		t.Fatalf("stats after reopen = %+v", st)
	}
}

// TestReplayFrom: records at or below the from epoch are skipped — and
// a snapshot newer than the whole log tail replays nothing at all.
func TestReplayFrom(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	for e := uint64(1); e <= 5; e++ {
		if err := w.Append(batchRec(e, upd(0, int(e), true))); err != nil {
			t.Fatal(err)
		}
	}
	if got := collect(t, w, 3); len(got) != 2 || got[0].Epoch != 4 || got[1].Epoch != 5 {
		t.Fatalf("Replay(3) = %v", got)
	}
	// Snapshot newer than the log tail: clean no-op, not an error.
	if got := collect(t, w, 5); len(got) != 0 {
		t.Fatalf("Replay(tail) visited %d records", len(got))
	}
	if got := collect(t, w, 99); len(got) != 0 {
		t.Fatalf("Replay(beyond tail) visited %d records", len(got))
	}
}

// TestEpochMustAdvance: appends that do not advance the epoch chain are
// refused — the ordering replay relies on.
func TestEpochMustAdvance(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	if err := w.Append(batchRec(5, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(batchRec(5, upd(1, 2, true))); err == nil {
		t.Fatal("equal epoch accepted")
	}
	if err := w.Append(batchRec(4, upd(1, 2, true))); err == nil {
		t.Fatal("regressing epoch accepted")
	}
	if err := w.Append(batchRec(6, upd(1, 2, true))); err != nil {
		t.Fatalf("advancing epoch refused: %v", err)
	}
}

// assertFailedLog checks that w refuses Append and Sync with first and
// leaves every file alone, then that reopening dir replays exactly the
// epochs given, truncating torn bytes of the failed record.
func assertFailedLog(t *testing.T, w *WAL, dir string, first error, torn int64, epochs ...uint64) {
	t.Helper()
	before := dirSizes(t, dir)
	if err := w.Append(batchRec(9, upd(2, 3, true))); !errors.Is(err, first) {
		t.Fatalf("Append after the failure = %v, want the first error %v", err, first)
	}
	if err := w.Sync(); !errors.Is(err, first) {
		t.Fatalf("Sync after the failure = %v, want the first error %v", err, first)
	}
	if after := dirSizes(t, dir); !maps.Equal(after, before) {
		t.Fatalf("failed log touched its files: %v → %v", before, after)
	}
	if err := w.Close(); !errors.Is(err, first) {
		t.Fatalf("Close = %v, want the first error %v", err, first)
	}
	w2 := mustOpen(t, dir, Options{})
	if st := w2.Stats(); st.TornBytes != torn {
		t.Fatalf("reopen truncated %d torn bytes, want %d", st.TornBytes, torn)
	}
	got := collect(t, w2, 0)
	if len(got) != len(epochs) {
		t.Fatalf("reopen replayed %d records, want epochs %v", len(got), epochs)
	}
	for i, r := range got {
		if r.Epoch != epochs[i] {
			t.Fatalf("record %d has epoch %d, want %d", i, r.Epoch, epochs[i])
		}
	}
}

// dirSizes maps each file in dir to its size.
func dirSizes(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	sizes := map[string]int64{}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		sizes[e.Name()] = info.Size()
	}
	return sizes
}

// TestFailedWriteFailsLog: a tail write that fails can leave part of its
// frame behind — here the first 7 bytes of epoch 2's, what a short write
// leaves. Appending past it would bury it mid-log, where Open refuses
// the whole log as damage; a failed log appends nothing, so the partial
// frame stays the tail and Open truncates it.
func TestFailedWriteFailsLog(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	rw := w.tail
	ro, err := os.Open(rw.Name())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ro.Close() }()
	w.tail = ro // a real Write through it fails
	first := w.Append(batchRec(2, upd(1, 2, true)))
	w.tail = rw
	if first == nil {
		t.Fatal("Append through a read-only handle succeeded")
	}
	if _, err := rw.Write(appendRecord(nil, batchRec(2, upd(1, 2, true)))[:7]); err != nil {
		t.Fatal(err)
	}
	assertFailedLog(t, w, dir, first, 7, 1)
}

// TestFailedFsyncFailsLog: an fsync error fails the log, since a retried
// fsync can report success after the kernel dropped the pages that
// failed to reach the disk. Sync fails here through a closed handle; the
// SyncInterval flusher and SyncAlways appends fsync through the same
// path.
func TestFailedFsyncFailsLog(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{Sync: SyncNone})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	dead, err := os.Open(w.tail.Name())
	if err != nil {
		t.Fatal(err)
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	rw := w.tail
	w.tail = dead
	first := w.Sync()
	w.tail = rw
	if first == nil {
		t.Fatal("Sync through a closed handle succeeded")
	}
	assertFailedLog(t, w, dir, first, 0, 1)
}

// TestFailedRotateFailsLog: a segment that cannot be created fails the
// log, so no later Append creates a segment after the missing record.
func TestFailedRotateFailsLog(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SegmentBytes: 1})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	// Epoch 2's segment name is taken, so its exclusive create fails.
	if err := os.WriteFile(filepath.Join(dir, segmentName(2)), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	first := w.Append(batchRec(2, upd(1, 2, true)))
	if first == nil {
		t.Fatal("Append over a taken segment name succeeded")
	}
	assertFailedLog(t, w, dir, first, 0, 1)
}

// TestTornTailTruncates: a partial record at the tail — every possible
// cut point — recovers by truncation to the last intact record, never
// by error, and reports the torn byte count.
func TestTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	recs := []*Record{
		batchRec(1, upd(0, 1, true)),
		batchRec(2, upd(1, 2, true), upd(2, 3, true)),
	}
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	seg := filepath.Join(dir, segmentName(1))
	full, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	firstLen := recordHeaderBytes + int(binary.LittleEndian.Uint32(full[:4]))

	t.Run("crc-damaged final frame", func(t *testing.T) {
		// A partial page write can land the full frame with wrong payload
		// bytes: CRC fails, but the frame is the last thing in the file —
		// recoverable by truncation, unlike mid-log CRC damage.
		dir2 := t.TempDir()
		mangled := append([]byte(nil), full...)
		mangled[len(mangled)-1] ^= 0xff
		if err := os.WriteFile(filepath.Join(dir2, segmentName(1)), mangled, 0o644); err != nil {
			t.Fatal(err)
		}
		w2 := mustOpen(t, dir2, Options{})
		got := collect(t, w2, 0)
		if len(got) != 1 || got[0].Epoch != 1 {
			t.Fatalf("recovered %d records, want the single intact one", len(got))
		}
		if st := w2.Stats(); st.TornBytes != int64(len(full)-firstLen) {
			t.Fatalf("TornBytes = %d, want %d", st.TornBytes, len(full)-firstLen)
		}
	})

	for cut := firstLen + 1; cut < len(full); cut++ {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir2 := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir2, segmentName(1)), full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			w2 := mustOpen(t, dir2, Options{})
			got := collect(t, w2, 0)
			if len(got) != 1 || got[0].Epoch != 1 {
				t.Fatalf("recovered %d records, want the single intact one", len(got))
			}
			st := w2.Stats()
			if st.TornBytes != int64(cut-firstLen) {
				t.Fatalf("TornBytes = %d, want %d", st.TornBytes, cut-firstLen)
			}
			// The log must accept appends after recovery.
			if err := w2.Append(batchRec(2, upd(5, 6, true))); err != nil {
				t.Fatalf("append after torn-tail recovery: %v", err)
			}
		})
	}
}

// TestSingleTornRecord: when the ONLY record is torn, recovery yields
// an empty log (the recordless segment is removed) and appends restart
// cleanly.
func TestSingleTornRecord(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	w.Close()
	seg := filepath.Join(dir, segmentName(1))
	full, _ := os.ReadFile(seg)
	if err := os.WriteFile(seg, full[:len(full)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, Options{})
	if got := collect(t, w2, 0); len(got) != 0 {
		t.Fatalf("torn-only log replayed %d records", len(got))
	}
	if st := w2.Stats(); st.Segments != 0 {
		t.Fatalf("recordless segment survived recovery: %+v", st)
	}
	// Appends may restart at any epoch, e.g. a different numbering after
	// the unlogged state was reconstructed some other way.
	if err := w2.Append(batchRec(7, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	w3 := mustOpen(t, dir, Options{})
	if got := collect(t, w3, 0); len(got) != 1 || got[0].Epoch != 7 {
		t.Fatalf("replay after restart = %v", got)
	}
}

// TestCorruptMidLogFailsLoudly: damage that is NOT a torn tail — a
// flipped byte with intact records after it, or any damage in a
// non-final segment — must refuse to open, not silently truncate away
// acknowledged records.
func TestCorruptMidLogFailsLoudly(t *testing.T) {
	t.Run("flipped byte before intact records", func(t *testing.T) {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{})
		for e := uint64(1); e <= 3; e++ {
			if err := w.Append(batchRec(e, upd(0, int(e), true))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		seg := filepath.Join(dir, segmentName(1))
		full, _ := os.ReadFile(seg)
		full[recordHeaderBytes+2] ^= 0xff // corrupt record 1's payload
		if err := os.WriteFile(seg, full, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("mid-log corruption opened without error")
		}
	})
	t.Run("non-final segment damaged", func(t *testing.T) {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{SegmentBytes: 1}) // every record rotates
		for e := uint64(1); e <= 3; e++ {
			if err := w.Append(batchRec(e, upd(0, int(e), true))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		seg := filepath.Join(dir, segmentName(2))
		full, _ := os.ReadFile(seg)
		if err := os.WriteFile(seg, full[:len(full)-2], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("damaged non-final segment opened without error")
		}
	})
	t.Run("epoch gap across segments", func(t *testing.T) {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{SegmentBytes: 1})
		for e := uint64(1); e <= 3; e++ {
			if err := w.Append(batchRec(e, upd(0, int(e), true))); err != nil {
				t.Fatal(err)
			}
		}
		w.Close()
		// Deleting a MIDDLE segment leaves 1 then 3: name order is fine but
		// the epoch chain is broken... and in this encoding the chain check
		// is strict inequality, so 1→3 passes numerically. What cannot pass
		// is a segment REORDERING: rename segment 3 below segment 1.
		if err := os.Rename(filepath.Join(dir, segmentName(3)), filepath.Join(dir, segmentName(0))); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("reordered segments opened without error")
		}
	})
	t.Run("misnamed segment", func(t *testing.T) {
		dir := t.TempDir()
		w := mustOpen(t, dir, Options{})
		if err := w.Append(batchRec(4, upd(0, 1, true))); err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := os.Rename(filepath.Join(dir, segmentName(4)), filepath.Join(dir, segmentName(2))); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Fatal("misnamed segment opened without error")
		}
	})
}

// TestSegmentBoundaryAtRecordEdge: when a record lands the segment size
// EXACTLY on the rotation budget, the next record starts a fresh
// segment, no byte is split across files, and recovery sees both.
func TestSegmentBoundaryAtRecordEdge(t *testing.T) {
	recBytes := len(appendRecord(nil, batchRec(1, upd(0, 1, true))))
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SegmentBytes: int64(recBytes)}) // one record fills a segment exactly
	for e := uint64(1); e <= 3; e++ {
		if err := w.Append(batchRec(e, upd(0, 1, true))); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.Segments != 3 {
		t.Fatalf("Segments = %d, want 3 (rotation exactly at the record edge)", st.Segments)
	}
	w.Close()
	for e := uint64(1); e <= 3; e++ {
		info, err := os.Stat(filepath.Join(dir, segmentName(e)))
		if err != nil {
			t.Fatalf("segment %d: %v", e, err)
		}
		if info.Size() != int64(recBytes) {
			t.Fatalf("segment %d holds %d bytes, want exactly %d", e, info.Size(), recBytes)
		}
	}
	w2 := mustOpen(t, dir, Options{SegmentBytes: int64(recBytes)})
	if got := collect(t, w2, 0); len(got) != 3 {
		t.Fatalf("replayed %d records across exact-boundary segments, want 3", len(got))
	}
}

// TestTruncate removes exactly the sealed segments a snapshot covers:
// never a segment with records above the snapshot epoch, never the
// active tail.
func TestTruncate(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, Options{SegmentBytes: 1})
	for e := uint64(1); e <= 4; e++ {
		if err := w.Append(batchRec(e, upd(0, int(e), true))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(2); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Segments != 2 {
		t.Fatalf("Segments after Truncate(2) = %d, want 2", st.Segments)
	}
	if got := collect(t, w, 2); len(got) != 2 || got[0].Epoch != 3 {
		t.Fatalf("post-truncate Replay(2) = %v", got)
	}
	// Truncating everything still keeps the tail.
	if err := w.Truncate(99); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.Segments != 1 || st.LastEpoch != 4 {
		t.Fatalf("Truncate must keep the active tail: %+v", st)
	}
	// And the survivor chain reopens cleanly.
	w.Close()
	w2 := mustOpen(t, dir, Options{})
	if got := collect(t, w2, 0); len(got) != 1 || got[0].Epoch != 4 {
		t.Fatalf("replay after truncate+reopen = %v", got)
	}
}

// TestSyncPolicies: always fsyncs per append; interval leaves appends
// unsynced until the timer or an explicit Sync; none never fsyncs but
// Sync still forces.
func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		w := mustOpen(t, t.TempDir(), Options{Sync: SyncAlways})
		for e := uint64(1); e <= 3; e++ {
			if err := w.Append(batchRec(e, upd(0, 1, true))); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.Stats(); st.Fsyncs != 3 {
			t.Fatalf("Fsyncs = %d, want one per append", st.Fsyncs)
		}
	})
	t.Run("interval", func(t *testing.T) {
		w := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncInterval: time.Hour})
		if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 0 {
			t.Fatalf("interval policy fsynced on append (%d)", st.Fsyncs)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 1 {
			t.Fatalf("explicit Sync did not fsync (%d)", st.Fsyncs)
		}
		// A second Sync with nothing new appended is a no-op.
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 1 {
			t.Fatalf("clean Sync fsynced anyway (%d)", st.Fsyncs)
		}
	})
	t.Run("interval timer", func(t *testing.T) {
		w := mustOpen(t, t.TempDir(), Options{Sync: SyncInterval, SyncInterval: time.Millisecond})
		if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for w.Stats().Fsyncs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("background flusher never fsynced")
			}
			time.Sleep(time.Millisecond)
		}
	})
	t.Run("none", func(t *testing.T) {
		w := mustOpen(t, t.TempDir(), Options{Sync: SyncNone})
		if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 0 {
			t.Fatalf("none policy fsynced (%d)", st.Fsyncs)
		}
	})
}

// TestClosedOperations: every operation on a closed WAL reports
// ErrClosed instead of touching freed handles.
func TestClosedOperations(t *testing.T) {
	w := mustOpen(t, t.TempDir(), Options{})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := w.Append(batchRec(2, upd(0, 1, true))); err == nil {
		t.Fatal("Append on closed WAL succeeded")
	}
	if err := w.Sync(); err == nil {
		t.Fatal("Sync on closed WAL succeeded")
	}
	if err := w.Truncate(1); err == nil {
		t.Fatal("Truncate on closed WAL succeeded")
	}
	if err := w.Replay(0, func(*Record) error { return nil }); err == nil {
		t.Fatal("Replay on closed WAL succeeded")
	}
}

// TestDecodeRejectsMalformedPayloads: framing that passes the CRC (we
// corrupt and re-frame deliberately) still cannot smuggle nonsense
// payloads through the decoder.
func TestDecodeRejectsMalformedPayloads(t *testing.T) {
	cases := map[string][]byte{
		"short prologue":        {1, 2, 3},
		"unknown kind":          append(binary.LittleEndian.AppendUint64(nil, 1), 0xEE),
		"batch truncated count": append(binary.LittleEndian.AppendUint64(nil, 1), byte(KindBatch), 9, 9),
		"addnodes short body":   append(binary.LittleEndian.AppendUint64(nil, 1), byte(KindAddNodes), 1),
		"recompute with body":   append(binary.LittleEndian.AppendUint64(nil, 1), byte(KindRecompute), 7),
		"update count mismatch": append(binary.LittleEndian.AppendUint32(append(binary.LittleEndian.AppendUint64(nil, 1), byte(KindUpdate)), 2), 0),
	}
	for name, payload := range cases {
		if _, err := decodePayload(payload); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
	// A bad op byte inside an otherwise well-formed update.
	b := binary.LittleEndian.AppendUint64(nil, 1)
	b = append(b, byte(KindUpdate))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, 0)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 9)
	if _, err := decodePayload(b); err == nil {
		t.Error("op byte 9 decoded without error")
	}
}

// TestForeignFilesIgnored: unrelated files in the WAL directory are
// left alone, but a file that claims the segment suffix with a mangled
// name is an error, not silently skipped.
func TestForeignFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := mustOpen(t, dir, Options{})
	if err := w.Append(batchRec(1, upd(0, 1, true))); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if err := os.WriteFile(filepath.Join(dir, "junk.wal"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("mangled segment name opened without error")
	}
}

// TestParseSyncPolicy covers the flag parser.
func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{"": SyncAlways, "always": SyncAlways, "interval": SyncInterval, "none": SyncNone} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Error("bad policy parsed")
	}
}

// TestEncodeIsDeterministic pins the wire framing: byte-identical
// encoding for identical records, and the CRC actually covers the
// payload (a flipped payload byte fails the checksum on read).
func TestEncodeIsDeterministic(t *testing.T) {
	r := batchRec(3, upd(1, 2, true), upd(3, 4, false))
	a := appendRecord(nil, r)
	b := appendRecord(nil, r)
	if !bytes.Equal(a, b) {
		t.Fatal("encoding is not deterministic")
	}
	a[recordHeaderBytes] ^= 1
	if _, _, err := newRecordReader(bytes.NewReader(a)).next(); err == nil {
		t.Fatal("flipped payload byte passed the CRC")
	}
}
