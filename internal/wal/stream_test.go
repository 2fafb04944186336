package wal

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// TestFrameRoundTrip: the stream codec is the on-disk record codec —
// every record kind (plus the stream-only heartbeat) survives
// EncodeFrame → FrameReader bit-exactly.
func TestFrameRoundTrip(t *testing.T) {
	recs := []*Record{
		{Epoch: 1, Kind: KindUpdate, Updates: []graph.Update{
			{Edge: graph.Edge{From: 3, To: 7}, Insert: true}}},
		{Epoch: 2, Kind: KindBatch, Updates: []graph.Update{
			{Edge: graph.Edge{From: 0, To: 1}, Insert: true},
			{Edge: graph.Edge{From: 1, To: 0}, Insert: false}}},
		{Epoch: 3, Kind: KindAddNodes, Count: 5},
		{Epoch: 4, Kind: KindRecompute},
		Heartbeat(4), // repeats the committed epoch; streams fine
		{Epoch: 9, Kind: KindUpdate, Updates: []graph.Update{
			{Edge: graph.Edge{From: 2, To: 2}, Insert: false}}},
	}
	var buf []byte
	for _, r := range recs {
		buf = EncodeFrame(buf, r)
	}
	fr := NewFrameReader(bytes.NewReader(buf))
	for i, want := range recs {
		got, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) &&
			// DeepEqual treats nil and empty slices differently; the
			// decoder materializes an empty Updates slice for count 0.
			!(len(got.Updates) == 0 && len(want.Updates) == 0 &&
				got.Epoch == want.Epoch && got.Kind == want.Kind && got.Count == want.Count) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
	}
	if _, err := fr.Next(); err != io.EOF {
		t.Fatalf("want io.EOF at end of stream, got %v", err)
	}
}

// TestFrameReaderRejectsDamage: a flipped byte mid-stream is a broken
// connection, never silently skipped.
func TestFrameReaderRejectsDamage(t *testing.T) {
	buf := EncodeFrame(nil, &Record{Epoch: 1, Kind: KindRecompute})
	buf = EncodeFrame(buf, &Record{Epoch: 2, Kind: KindRecompute})
	buf[len(buf)-1] ^= 0xFF
	fr := NewFrameReader(bytes.NewReader(buf))
	if _, err := fr.Next(); err != nil {
		t.Fatalf("intact first frame rejected: %v", err)
	}
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Fatalf("damaged frame not rejected (err=%v)", err)
	}
}

// TestFrameReaderTornTail: a stream cut mid-frame errors (the client
// reconnects); it is not a clean EOF.
func TestFrameReaderTornTail(t *testing.T) {
	buf := EncodeFrame(nil, &Record{Epoch: 1, Kind: KindAddNodes, Count: 2})
	fr := NewFrameReader(bytes.NewReader(buf[:len(buf)-3]))
	if _, err := fr.Next(); err == nil || err == io.EOF {
		t.Fatalf("torn frame not rejected (err=%v)", err)
	}
}

// hostileHeader is a lone frame header declaring the largest payload
// the reader accepts, followed by nothing.
func hostileHeader() []byte {
	return binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, maxRecordBytes), 0)
}

// TestFrameReaderHostileLengthAllocatesLittle: a frame header alone
// must not buy its declared payload's worth of memory — the reader
// fails on the short stream having allocated in proportion to the
// bytes that arrived.
func TestFrameReaderHostileLengthAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewFrameReader(bytes.NewReader(hostileHeader())).Next()
	runtime.ReadMemStats(&after)
	if err == nil || err == io.EOF {
		t.Fatalf("8-byte frame declaring %d bytes not rejected (err=%v)", maxRecordBytes, err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("8-byte hostile frame allocated %d B, want < 1 MiB", got)
	}
}

// FuzzFrameReader feeds arbitrary bytes to a FrameReader. Next must
// never panic, and every record it returns must re-encode with
// EncodeFrame to exactly the frame bytes it consumed — the decoder
// accepts nothing the encoder would not write.
func FuzzFrameReader(f *testing.F) {
	recs := []*Record{
		{Epoch: 1, Kind: KindUpdate, Updates: []graph.Update{
			{Edge: graph.Edge{From: 3, To: 7}, Insert: true}}},
		{Epoch: 2, Kind: KindBatch, Updates: []graph.Update{
			{Edge: graph.Edge{From: 0, To: 1}, Insert: true},
			{Edge: graph.Edge{From: 1, To: 0}},
			{Edge: graph.Edge{From: 4, To: 2}, Insert: true}}},
		{Epoch: 3, Kind: KindAddNodes, Count: 5},
		{Epoch: 4, Kind: KindRecompute},
		Heartbeat(4),
	}
	var stream []byte
	for _, r := range recs {
		frame := EncodeFrame(nil, r)
		f.Add(frame)
		stream = append(stream, frame...)
	}
	f.Add(stream)
	flipped := EncodeFrame(nil, recs[1])
	flipped[4] ^= 0x01 // one CRC byte
	f.Add(flipped)
	f.Add(hostileHeader())

	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		fr := NewFrameReader(r)
		for {
			start := len(data) - r.Len()
			rec, err := fr.Next()
			if err != nil {
				return
			}
			frame := data[start : len(data)-r.Len()]
			if got := EncodeFrame(nil, rec); !bytes.Equal(got, frame) {
				t.Fatalf("record %+v re-encodes to %x, consumed %x", rec, got, frame)
			}
		}
	})
}

// TestAppendRejectsHeartbeat: heartbeats are stream liveness frames;
// one in the durable log would poison replay.
func TestAppendRejectsHeartbeat(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	if err := w.Append(Heartbeat(1)); err == nil {
		t.Fatal("Append accepted a heartbeat frame")
	}
}

// TestTruncatedThroughStat: Truncate records the highest dropped epoch
// — the replication streaming floor a follower must not fall below.
func TestTruncatedThroughStat(t *testing.T) {
	w, err := Open(t.TempDir(), Options{Sync: SyncNone, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	for e := uint64(1); e <= 4; e++ {
		if err := w.Append(&Record{Epoch: e, Kind: KindRecompute}); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().TruncatedThrough; got != 0 {
		t.Fatalf("TruncatedThrough %d before any truncate", got)
	}
	if err := w.Truncate(3); err != nil {
		t.Fatal(err)
	}
	// 1-byte segments: every record sealed its own segment, so records
	// 1..3 were dropped and the tail (4) kept.
	if got := w.Stats().TruncatedThrough; got != 3 {
		t.Fatalf("TruncatedThrough = %d after Truncate(3), want 3", got)
	}
}
