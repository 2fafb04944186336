package replica_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// fakeLeader is a scripted GET /wal endpoint: the test pushes
// pre-encoded frames (or a canned error status) and observes every
// connection attempt with its from= position — full control over the
// stream a Replica sees, which is how the gate and divergence edges get
// pinned without racing a real engine.
type fakeLeader struct {
	srv    *httptest.Server
	frames chan []byte
	status atomic.Int64 // nonzero: answer this status instead of streaming

	mu    sync.Mutex
	froms []string
}

func newFakeLeader(t *testing.T) *fakeLeader {
	t.Helper()
	fl := &fakeLeader{frames: make(chan []byte, 64)}
	fl.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fl.mu.Lock()
		fl.froms = append(fl.froms, r.URL.Query().Get("from"))
		fl.mu.Unlock()
		if st := fl.status.Load(); st != 0 {
			w.WriteHeader(int(st))
			return
		}
		f := w.(http.Flusher)
		w.WriteHeader(http.StatusOK)
		f.Flush()
		for {
			select {
			case b, ok := <-fl.frames:
				if !ok {
					return
				}
				if _, err := w.Write(b); err != nil {
					return
				}
				f.Flush()
			case <-r.Context().Done():
				return
			}
		}
	}))
	t.Cleanup(fl.srv.Close)
	return fl
}

func (fl *fakeLeader) send(t *testing.T, rec *wal.Record) {
	t.Helper()
	select {
	case fl.frames <- wal.EncodeFrame(nil, rec):
	case <-time.After(5 * time.Second):
		t.Fatal("fake leader frame queue full")
	}
}

func (fl *fakeLeader) connections() int {
	fl.mu.Lock()
	defer fl.mu.Unlock()
	return len(fl.froms)
}

func (fl *fakeLeader) lastFrom(t *testing.T) string {
	t.Helper()
	fl.mu.Lock()
	defer fl.mu.Unlock()
	if len(fl.froms) == 0 {
		t.Fatal("no connections recorded")
	}
	return fl.froms[len(fl.froms)-1]
}

// startReplica runs rep until the test ends and returns the channel
// Run's result lands on.
func startReplica(t *testing.T, rep *replica.Replica) chan error {
	t.Helper()
	done := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() { done <- rep.Run(ctx) }()
	return done
}

// waitFor polls cond until true or fails the test.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newFollowerEngine(t *testing.T) *simrank.ConcurrentEngine {
	t.Helper()
	eng, err := simrank.NewConcurrentEngine(4, nil, simrank.Options{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestReadyzFlipsExactlyAtLagBound pins the readiness gate's boundary:
// with -follow-lag N, /readyz (and CaughtUp) answers ready at lag == N
// and not-ready at lag == N+1 — the flip is exact, not approximate, so
// rollout gates can reason in epochs.
func TestReadyzFlipsExactlyAtLagBound(t *testing.T) {
	fl := newFakeLeader(t)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:       fl.srv.URL,
		LagBound:     2,
		StallTimeout: 5 * time.Second,
		BackoffMin:   time.Millisecond,
	})
	// The follower's own HTTP face, for the end-to-end 503/200 check.
	fsrv := httptest.NewServer(server.New(eng, server.Config{Leader: fl.srv.URL, Replica: rep}))
	t.Cleanup(fsrv.Close)

	readyz := func() int {
		resp, err := http.Get(fsrv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if rep.CaughtUp() {
		t.Fatal("caught up before any frame arrived (leader position unknown)")
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d with no leader contact, want 503", got)
	}

	startReplica(t, rep)

	// Leader at epoch 3, follower at 0: lag 3 > bound 2 → not ready.
	fl.send(t, wal.Heartbeat(3))
	waitFor(t, "leader epoch 3", func() bool { return rep.Stats().LeaderEpoch == 3 })
	if rep.CaughtUp() {
		t.Fatal("caught up at lag 3 with bound 2")
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d at lag 3, want 503", got)
	}

	// One record applied: lag exactly 2 == bound → ready. (Recompute
	// records carry no payload and always apply, so the script controls
	// epochs precisely.)
	fl.send(t, &wal.Record{Epoch: 1, Kind: wal.KindRecompute})
	waitFor(t, "applied epoch 1", func() bool { return rep.Stats().AppliedEpoch == 1 })
	if !rep.CaughtUp() {
		t.Fatalf("not caught up at lag exactly the bound: %+v", rep.Stats())
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz = %d at lag == bound, want 200", got)
	}

	// Leader runs ahead to 6: lag 5 → back to not-ready.
	fl.send(t, wal.Heartbeat(6))
	waitFor(t, "leader epoch 6", func() bool { return rep.Stats().LeaderEpoch == 6 })
	if rep.CaughtUp() {
		t.Fatal("caught up at lag 5 with bound 2")
	}
	if got := readyz(); got != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d at lag 5, want 503", got)
	}
	if rep.Stats().LagMS <= 0 {
		t.Fatalf("lag_ms = %v while epochs behind", rep.Stats().LagMS)
	}

	// Catch all the way up: lag 0 → ready, lag clock reset.
	for e := uint64(2); e <= 6; e++ {
		fl.send(t, &wal.Record{Epoch: e, Kind: wal.KindRecompute})
	}
	waitFor(t, "applied epoch 6", func() bool { return rep.Stats().AppliedEpoch == 6 })
	if !rep.CaughtUp() {
		t.Fatalf("not caught up at lag 0: %+v", rep.Stats())
	}
	if got := readyz(); got != http.StatusOK {
		t.Fatalf("/readyz = %d at lag 0, want 200", got)
	}
	if ms := rep.Stats().LagMS; ms != 0 {
		t.Fatalf("lag_ms = %v after catching up, want 0", ms)
	}
}

// TestStalledLeaderTripsReconnect: a leader that stops sending frames —
// up at TCP level, wedged above it — trips the stall watchdog; the
// follower re-dials from its applied epoch and counts the reconnect.
func TestStalledLeaderTripsReconnect(t *testing.T) {
	fl := newFakeLeader(t)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:       fl.srv.URL,
		StallTimeout: 50 * time.Millisecond,
		BackoffMin:   time.Millisecond,
		BackoffMax:   10 * time.Millisecond,
	})
	startReplica(t, rep)

	fl.send(t, &wal.Record{Epoch: 1, Kind: wal.KindRecompute})
	waitFor(t, "applied epoch 1", func() bool { return rep.Stats().AppliedEpoch == 1 })
	// ...and now the leader goes silent. No heartbeat within the stall
	// timeout → reconnect, resuming from the applied epoch.
	waitFor(t, "a reconnect", func() bool { return rep.Stats().Reconnects >= 1 })
	waitFor(t, "the re-dial to land", func() bool { return fl.connections() >= 2 })
	if from := fl.lastFrom(t); from != "1" {
		t.Fatalf("reconnected with from=%s, want from=1 (the applied epoch)", from)
	}
}

// TestEpochRegressionIsTerminal: a stream whose next record does not
// advance past the follower's state is divergence — Run must return
// ErrDiverged instead of reconnecting into a silent fork.
func TestEpochRegressionIsTerminal(t *testing.T) {
	fl := newFakeLeader(t)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:       fl.srv.URL,
		StallTimeout: 5 * time.Second,
		BackoffMin:   time.Millisecond,
	})
	done := startReplica(t, rep)

	fl.send(t, &wal.Record{Epoch: 1, Kind: wal.KindRecompute})
	fl.send(t, &wal.Record{Epoch: 2, Kind: wal.KindRecompute})
	waitFor(t, "applied epoch 2", func() bool { return rep.Stats().AppliedEpoch == 2 })
	fl.send(t, &wal.Record{Epoch: 2, Kind: wal.KindRecompute}) // does not advance
	select {
	case err := <-done:
		if !errors.Is(err, replica.ErrDiverged) {
			t.Fatalf("Run returned %v, want ErrDiverged", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept going past a regressed record epoch")
	}
	if rep.Stats().AppliedEpoch != 2 {
		t.Fatalf("regressed record mutated state: applied %d", rep.Stats().AppliedEpoch)
	}
}

// TestEpochGapIsTerminal: a stream that skips a record — records 1, 2,
// then 4 — is divergence too: Run returns ErrDiverged at record 4
// without applying it, instead of forking past the missing epoch 3.
func TestEpochGapIsTerminal(t *testing.T) {
	fl := newFakeLeader(t)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:       fl.srv.URL,
		StallTimeout: 5 * time.Second,
		BackoffMin:   time.Millisecond,
	})
	done := startReplica(t, rep)

	for _, e := range []uint64{1, 2} {
		fl.send(t, &wal.Record{Epoch: e, Kind: wal.KindRecompute})
	}
	waitFor(t, "applied epoch 2", func() bool { return rep.Stats().AppliedEpoch == 2 })
	fl.send(t, &wal.Record{Epoch: 4, Kind: wal.KindAddNodes, Count: 1}) // epoch 3 missing
	select {
	case err := <-done:
		if !errors.Is(err, replica.ErrDiverged) {
			t.Fatalf("Run returned %v, want ErrDiverged", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept going past a missing record")
	}
	if rep.Stats().AppliedEpoch != 2 || eng.Epoch() != 2 || eng.N() != 4 {
		t.Fatalf("record after the gap mutated state: applied %d, epoch %d, n %d", rep.Stats().AppliedEpoch, eng.Epoch(), eng.N())
	}
}

// TestHeartbeatRegressionIsTerminal: a heartbeat claiming the leader's
// position is BEHIND what this follower already applied means the
// follower replayed history the leader no longer has (a leader
// restarted without its log). Terminal, loudly.
func TestHeartbeatRegressionIsTerminal(t *testing.T) {
	fl := newFakeLeader(t)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:       fl.srv.URL,
		StallTimeout: 5 * time.Second,
		BackoffMin:   time.Millisecond,
	})
	done := startReplica(t, rep)

	for e := uint64(1); e <= 3; e++ {
		fl.send(t, &wal.Record{Epoch: e, Kind: wal.KindRecompute})
	}
	waitFor(t, "applied epoch 3", func() bool { return rep.Stats().AppliedEpoch == 3 })
	fl.send(t, wal.Heartbeat(1))
	select {
	case err := <-done:
		if !errors.Is(err, replica.ErrDiverged) {
			t.Fatalf("Run returned %v, want ErrDiverged", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept going past a regressed heartbeat")
	}
}

// TestTruncationFloorIsTerminal: a 410 from the leader means the
// records this follower needs were truncated after a snapshot — no
// retry can produce them, so Run returns ErrDiverged (re-seed from a
// leader snapshot) instead of hammering the endpoint.
func TestTruncationFloorIsTerminal(t *testing.T) {
	fl := newFakeLeader(t)
	fl.status.Store(http.StatusGone)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:     fl.srv.URL,
		BackoffMin: time.Millisecond,
	})
	done := startReplica(t, rep)
	select {
	case err := <-done:
		if !errors.Is(err, replica.ErrDiverged) {
			t.Fatalf("Run returned %v, want ErrDiverged", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run kept retrying a 410")
	}
	if fl.connections() != 1 {
		t.Fatalf("follower dialed %d times after a 410, want 1", fl.connections())
	}
}

// TestTransientErrorsAreRetried: ordinary failures — here a 500 —
// reconnect with backoff rather than kill the follower.
func TestTransientErrorsAreRetried(t *testing.T) {
	fl := newFakeLeader(t)
	fl.status.Store(http.StatusInternalServerError)
	eng := newFollowerEngine(t)
	rep := replica.New(eng, replica.Options{
		Leader:     fl.srv.URL,
		BackoffMin: time.Millisecond,
		BackoffMax: 5 * time.Millisecond,
	})
	done := startReplica(t, rep)
	waitFor(t, "retries", func() bool { return fl.connections() >= 3 })
	fl.status.Store(0) // leader healthy again
	fl.send(t, &wal.Record{Epoch: 1, Kind: wal.KindRecompute})
	waitFor(t, "recovery", func() bool { return rep.Stats().AppliedEpoch == 1 })
	select {
	case err := <-done:
		t.Fatalf("Run exited on a transient error: %v", err)
	default:
	}
	if rep.Stats().Reconnects < 2 {
		t.Fatalf("reconnects = %d after repeated 500s, want ≥ 2", rep.Stats().Reconnects)
	}
}
