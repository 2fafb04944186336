package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/wal"
)

// dialStream opens GET /wal?from= and returns a FrameReader over the
// live body plus a closer.
func dialStream(t *testing.T, base string, from string) (*wal.FrameReader, func()) {
	t.Helper()
	resp, err := http.Get(base + "/wal?from=" + from)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("GET /wal answered %d", resp.StatusCode)
	}
	return wal.NewFrameReader(resp.Body), func() { resp.Body.Close() }
}

// nextRecord reads frames until a non-heartbeat record arrives (the
// stream interleaves liveness frames freely).
func nextRecord(t *testing.T, fr *wal.FrameReader) *wal.Record {
	t.Helper()
	for {
		rec, err := fr.Next()
		if err != nil {
			t.Fatalf("stream broke: %v", err)
		}
		if rec.Kind != wal.KindHeartbeat {
			return rec
		}
	}
}

// TestWALStreamBacklogAndTail: the stream serves the on-disk backlog
// first, then records committed while the connection is open — each
// exactly once, in epoch order, bit-identical to what the leader
// logged.
func TestWALStreamBacklogAndTail(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	eng, err := simrank.NewConcurrentEngine(6, []simrank.Edge{{From: 0, To: 1}}, simrank.Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWAL(w)
	srv := New(eng, Config{WAL: w, HeartbeatInterval: 5 * time.Millisecond})
	ts := newHTTPServer(t, srv)

	// Backlog: two records committed before anyone subscribes.
	if _, err := eng.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(2, 3); err != nil {
		t.Fatal(err)
	}

	fr, closeStream := dialStream(t, ts.URL, "0")
	defer closeStream()
	for i, want := range []struct {
		epoch uint64
		from  int
		to    int
	}{{1, 1, 2}, {2, 2, 3}} {
		rec := nextRecord(t, fr)
		if rec.Epoch != want.epoch || rec.Kind != wal.KindUpdate ||
			rec.Updates[0].Edge.From != want.from || rec.Updates[0].Edge.To != want.to {
			t.Fatalf("backlog record %d = %+v, want epoch %d edge %d→%d", i, rec, want.epoch, want.from, want.to)
		}
	}

	// Tail: a record committed while the stream is open arrives live.
	if _, err := eng.Insert(3, 4); err != nil {
		t.Fatal(err)
	}
	rec := nextRecord(t, fr)
	if rec.Epoch != 3 || rec.Updates[0].Edge.From != 3 {
		t.Fatalf("tail record = %+v, want the live insert at epoch 3", rec)
	}

	// And a second subscriber starting mid-history gets only the suffix.
	fr2, closeStream2 := dialStream(t, ts.URL, "2")
	defer closeStream2()
	rec = nextRecord(t, fr2)
	if rec.Epoch != 3 {
		t.Fatalf("from=2 stream started at epoch %d, want 3", rec.Epoch)
	}

	// The /stats gauge sees both live streams.
	var st StatsResponse
	if got := getJSON(t, ts.URL+"/stats", &st); got != http.StatusOK {
		t.Fatalf("/stats = %d", got)
	}
	if st.WALSubscribers != 2 {
		t.Fatalf("wal_subscribers = %d, want 2", st.WALSubscribers)
	}
}

// newHTTPServer wraps an httptest listener with cleanup, mirroring
// newTestServer for servers whose engine the test builds itself.
func newHTTPServer(t *testing.T, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// postJSONInto posts body and decodes the response REGARDLESS of status
// — the follower tests read fields off 409 bodies, which postJSON's
// success-only decode skips.
func postJSONInto(t *testing.T, url string, body, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestWALStreamHeartbeats: an idle leader still emits heartbeat frames
// carrying its committed epoch, at the configured cadence.
func TestWALStreamHeartbeats(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	eng, err := simrank.NewConcurrentEngine(4, nil, simrank.Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWAL(w)
	if _, err := eng.Insert(0, 1); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{WAL: w, HeartbeatInterval: time.Millisecond})
	ts := newHTTPServer(t, srv)

	// from = the committed epoch: the backlog is empty, so every frame
	// from here on is a heartbeat.
	fr, closeStream := dialStream(t, ts.URL, "1")
	defer closeStream()
	for i := 0; i < 3; i++ {
		rec, err := fr.Next()
		if err != nil {
			t.Fatalf("heartbeat %d: %v", i, err)
		}
		if rec.Kind != wal.KindHeartbeat || rec.Epoch != 1 {
			t.Fatalf("frame %d = %+v, want heartbeat at epoch 1", i, rec)
		}
	}
}

// TestWALStreamHeartbeatNeverTrailsRecord: a record reaches the stream
// after its durable append and before its view publishes. A heartbeat
// sent in that window must not report an epoch below the record's: a
// follower takes a heartbeat behind its own epoch for a leader that lost
// history, and stops.
func TestWALStreamHeartbeatNeverTrailsRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	eng, err := simrank.NewConcurrentEngine(4, nil, simrank.Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWAL(w)
	srv := New(eng, Config{WAL: w, HeartbeatInterval: time.Millisecond})
	ts := newHTTPServer(t, srv)
	// Hold the commit after the hub has the record and before the view
	// publishes, for as long as the stream is read.
	release := make(chan struct{})
	var once sync.Once
	unblock := func() { once.Do(func() { close(release) }) }
	defer unblock()
	eng.SetWALNotify(func(rec *wal.Record) {
		srv.walHub.publish(rec)
		<-release
	})

	fr, closeStream := dialStream(t, ts.URL, "0")
	defer closeStream()
	done := make(chan error, 1)
	go func() {
		_, err := eng.Insert(0, 1)
		done <- err
	}()
	var newest uint64
	for after := 0; after < 10; {
		rec, err := fr.Next()
		if err != nil {
			t.Fatalf("stream broke: %v", err)
		}
		if rec.Kind != wal.KindHeartbeat {
			newest = rec.Epoch
			continue
		}
		if rec.Epoch < newest {
			t.Fatalf("heartbeat at epoch %d after record %d", rec.Epoch, newest)
		}
		if newest > 0 {
			after++
		}
	}
	unblock()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestWALStreamWithoutWAL: a server running without -wal-dir has
// nothing to stream; the endpoint must say so, not hang.
func TestWALStreamWithoutWAL(t *testing.T) {
	_, _, ts := newTestServer(t, 4, Config{})
	resp, err := http.Get(ts.URL + "/wal?from=0")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("GET /wal without a WAL = %d, want 409", resp.StatusCode)
	}
}

// TestWALStreamTruncationFloor: a follower asking for epochs the
// snapshot-then-truncate cycle already dropped gets 410 Gone — the
// unambiguous "re-seed from a snapshot" signal — while a follower at or
// above the floor streams fine.
func TestWALStreamTruncationFloor(t *testing.T) {
	dir := t.TempDir()
	// 1-byte segments: every record seals its own segment, so Truncate
	// can drop precisely the covered prefix.
	w, err := wal.Open(dir, wal.Options{Sync: wal.SyncNone, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() //simrank:errok test cleanup on a SyncNone log
	eng, err := simrank.NewConcurrentEngine(6, nil, simrank.Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetWAL(w)
	for i := 0; i < 4; i++ {
		if _, err := eng.Insert(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Truncate(2); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{WAL: w})
	ts := newHTTPServer(t, srv)

	resp, err := http.Get(ts.URL + "/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	var body ErrorResponse
	json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("GET /wal below the truncation floor = %d (%s), want 410", resp.StatusCode, body.Error)
	}

	// At the floor exactly, the stream serves the surviving suffix.
	fr, closeStream := dialStream(t, ts.URL, "2")
	defer closeStream()
	if rec := nextRecord(t, fr); rec.Epoch != 3 {
		t.Fatalf("at-floor stream started at epoch %d, want 3", rec.Epoch)
	}
}

// TestFollowerRejectsWrites: a read replica answers every write with
// 409 and the leader's address — POST /updates and POST /nodes alike —
// while reads and snapshots keep working.
func TestFollowerRejectsWrites(t *testing.T) {
	const leaderURL = "http://leader.example:8080"
	_, _, ts := newTestServer(t, 4, Config{Leader: leaderURL})

	for _, tc := range []struct {
		path string
		body any
	}{
		{"/updates", UpdateJSON{From: 0, To: 2}},
		{"/nodes", NodesRequest{Count: 1}},
	} {
		var errBody ErrorResponse
		status := postJSONInto(t, ts.URL+tc.path, tc.body, &errBody)
		if status != http.StatusConflict {
			t.Fatalf("POST %s on a follower = %d, want 409", tc.path, status)
		}
		if errBody.Leader != leaderURL {
			t.Fatalf("POST %s 409 body names leader %q, want %q", tc.path, errBody.Leader, leaderURL)
		}
	}

	// Reads still serve.
	var sim SimilarityResponse
	if got := getJSON(t, ts.URL+"/similarity?a=0&b=1", &sim); got != http.StatusOK {
		t.Fatalf("follower read = %d, want 200", got)
	}
	// /stats names the leader.
	var st StatsResponse
	if got := getJSON(t, ts.URL+"/stats", &st); got != http.StatusOK {
		t.Fatalf("/stats = %d", got)
	}
	if st.Leader != "" {
		// Leader appears in /stats only when a Replica is wired; a bare
		// Leader config (no stream client) must not fake replica gauges.
		t.Fatalf("stats leader = %q without a replica client", st.Leader)
	}
}
