package replica_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/matrix"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// replicationFixture is one leader/follower pair over real HTTP: the
// leader engine logs to a real WAL and serves GET /wal through
// internal/server; the follower engine (same seed state, same options)
// tails it through a Replica.
type replicationFixture struct {
	leader   *simrank.ConcurrentEngine
	follower *simrank.ConcurrentEngine
	wal      *wal.WAL
	srv      *httptest.Server
	rep      *replica.Replica

	runErr chan error
	cancel context.CancelFunc
}

func newFixture(t *testing.T, n int, edges []simrank.Edge, opts simrank.Options, ropts replica.Options) *replicationFixture {
	t.Helper()
	w, err := wal.Open(t.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() }) //simrank:errok test cleanup on a SyncNone log
	leader, err := simrank.NewConcurrentEngine(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	leader.SetWAL(w)
	// The server wires SetWALNotify into the stream hub at Attach; the
	// test then writes to the engine directly (the pipeline endpoints are
	// not under test here), which reaches the hub all the same — the
	// notify hook sits on the engine's commit path, not the HTTP one.
	hs := server.New(leader, server.Config{WAL: w, HeartbeatInterval: 5 * time.Millisecond})
	srv := httptest.NewServer(hs)
	t.Cleanup(srv.Close)

	follower, err := simrank.NewConcurrentEngine(n, edges, opts)
	if err != nil {
		t.Fatal(err)
	}
	ropts.Leader = srv.URL
	if ropts.StallTimeout == 0 {
		ropts.StallTimeout = 2 * time.Second
	}
	if ropts.BackoffMin == 0 {
		ropts.BackoffMin = 5 * time.Millisecond
	}
	f := &replicationFixture{leader: leader, follower: follower, wal: w, srv: srv, runErr: make(chan error, 1)}
	f.rep = replica.New(follower, ropts)
	return f
}

func (f *replicationFixture) start(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() { f.runErr <- f.rep.Run(ctx) }()
	t.Cleanup(func() {
		cancel()
		if err := <-f.runErr; err != nil {
			t.Errorf("replica Run: %v", err)
		}
	})
}

// waitApplied blocks until the follower has applied through epoch, or
// fails the test after a generous deadline.
func (f *replicationFixture) waitApplied(t *testing.T, epoch uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for f.rep.Stats().AppliedEpoch < epoch {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at epoch %d waiting for %d (stats %+v)",
				f.rep.Stats().AppliedEpoch, epoch, f.rep.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

// assertBitEqual requires two engines on the same backend to answer
// every pairwise similarity with the exact same float64 bits —
// replication is replay, and replay in this repository is bit-exact on
// every backend (the approx tier's stored-walk index included, via its
// derived-seed repair).
func assertBitEqual(t *testing.T, label string, want *simrank.Engine, got *simrank.ConcurrentEngine) {
	t.Helper()
	if want.Epoch() != got.Epoch() {
		t.Fatalf("%s: epoch %d, want %d", label, got.Epoch(), want.Epoch())
	}
	if want.N() != got.N() || want.M() != got.M() {
		t.Fatalf("%s: size (%d,%d), want (%d,%d)", label, got.N(), got.M(), want.N(), want.M())
	}
	ws, gs := want.Similarities(), got.Similarities()
	if ws != nil && gs != nil {
		if d := matrix.MaxAbsDiff(ws, gs); d != 0 {
			t.Fatalf("%s: similarities differ by %g; replication must be bit-exact", label, d)
		}
		return
	}
	// The approx backend has no materialized matrix; its deterministic
	// stored-walk index must still answer every pair bit-identically.
	for i := 0; i < want.N(); i++ {
		for j := i; j < want.N(); j++ {
			if w, g := want.Similarity(i, j), got.Similarity(i, j); w != g {
				t.Fatalf("%s: s(%d,%d) = %v, want %v (bit-exact)", label, i, j, g, w)
			}
		}
	}
}

// oracleAdvance replays the leader's WAL records in (fromEpoch, toEpoch]
// through the PUBLIC engine entry points — an implementation-independent
// second opinion on what each record means — asserting the epoch
// bookkeeping matches the log's.
func oracleAdvance(oracle *simrank.Engine, w *wal.WAL, toEpoch uint64) error {
	errStop := errors.New("past target")
	err := w.Replay(oracle.Epoch(), func(rec *wal.Record) error {
		if rec.Epoch > toEpoch {
			return errStop
		}
		switch rec.Kind {
		case wal.KindUpdate:
			if _, err := oracle.Apply(rec.Updates[0]); err != nil {
				return err
			}
		case wal.KindBatch:
			if err := oracle.ApplyBatch(rec.Updates); err != nil {
				return err
			}
		case wal.KindAddNodes:
			if _, err := oracle.AddNodes(rec.Count); err != nil {
				return err
			}
		case wal.KindRecompute:
			oracle.Recompute()
		default:
			return fmt.Errorf("oracle: unknown kind %d", rec.Kind)
		}
		if oracle.Epoch() != rec.Epoch {
			return fmt.Errorf("oracle reached epoch %d replaying the record at %d", oracle.Epoch(), rec.Epoch)
		}
		return nil
	})
	if err != nil && !errors.Is(err, errStop) {
		return err
	}
	return nil
}

// TestReplicationEquivalence is the tentpole's proof: a leader under a
// random mixed write stream (unit updates, coalesced batches, node
// growth, recomputes) and a follower tailing its WAL stream agree
// bit-for-bit with a serial oracle at EVERY follower-published epoch —
// across all three backends and both worker regimes. Run under
// -race in CI, which also exercises the hub/stream/apply concurrency.
func TestReplicationEquivalence(t *testing.T) {
	const n0, steps = 10, 24
	baseEdges := []simrank.Edge{{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0}, {From: 1, To: 3}}
	configs := []struct {
		name string
		opts simrank.Options
	}{
		{"dense-incsr-w1", simrank.Options{C: 0.6, K: 8, Workers: 1, Backend: simrank.BackendDense}},
		{"dense-incsr-w4", simrank.Options{C: 0.6, K: 8, Workers: 4, Backend: simrank.BackendDense}},
		{"packed-incsr-w4", simrank.Options{C: 0.6, K: 8, Workers: 4, Backend: simrank.BackendPacked}},
		{"approx-w1", simrank.Options{C: 0.6, K: 8, Workers: 1, Backend: simrank.BackendApprox, ApproxWalks: 32, ApproxSeed: 7}},
	}
	for ci, cfg := range configs {
		t.Run(cfg.name, func(t *testing.T) {
			// The serial oracle: same seed state, advanced only by records
			// read back from the leader's durable log, compared inside
			// OnApplied — the instant the follower publishes epoch E, its
			// answers are the oracle's at E.
			oracle, err := simrank.NewEngine(n0, baseEdges, cfg.opts)
			if err != nil {
				t.Fatal(err)
			}
			var (
				mu       sync.Mutex
				checks   int
				checkErr error
			)
			var f *replicationFixture
			f = newFixture(t, n0, baseEdges, cfg.opts, replica.Options{
				OnApplied: func(epoch uint64) {
					mu.Lock()
					defer mu.Unlock()
					if checkErr != nil {
						return
					}
					if err := oracleAdvance(oracle, f.wal, epoch); err != nil {
						checkErr = err
						return
					}
					if oracle.Epoch() != epoch {
						checkErr = fmt.Errorf("oracle at epoch %d after advancing to %d", oracle.Epoch(), epoch)
						return
					}
					// The follower's published view IS epoch here: OnApplied is
					// synchronous in the apply loop, and the replica is the
					// engine's only writer.
					for i := 0; i < oracle.N(); i++ {
						for j := i; j < oracle.N(); j++ {
							if w, g := oracle.Similarity(i, j), f.follower.Similarity(i, j); w != g {
								checkErr = fmt.Errorf("epoch %d: s(%d,%d) = %v, want %v", epoch, i, j, g, w)
								return
							}
						}
					}
					checks++
				},
			})
			f.start(t)

			rng := rand.New(rand.NewSource(int64(1000 + ci)))
			for s := 0; s < steps; s++ {
				applyRandomStep(t, rng, f.leader)
			}
			f.waitApplied(t, f.leader.Epoch())

			mu.Lock()
			defer mu.Unlock()
			if checkErr != nil {
				t.Fatalf("per-epoch oracle check: %v", checkErr)
			}
			if checks == 0 {
				t.Fatal("no per-epoch checks ran")
			}
			assertBitEqual(t, "final state", oracle, f.follower)
			if st := f.rep.Stats(); !st.Connected || st.Records == 0 {
				t.Fatalf("follower stats claim no stream activity: %+v", st)
			}
		})
	}
}

// applyRandomStep drives one random mutation through the leader engine:
// mostly unit updates, with batches, node growth and recomputes mixed
// in. The driver is the engine's only writer, so reading the graph to
// build valid updates is race-free.
func applyRandomStep(t *testing.T, rng *rand.Rand, eng *simrank.ConcurrentEngine) {
	t.Helper()
	switch r := rng.Intn(10); {
	case r < 6: // unit update
		up := randomUpdate(rng, eng, nil)
		if _, err := eng.Apply(up); err != nil {
			t.Fatal(err)
		}
	case r < 8: // coalesced batch of distinct-edge updates
		seen := map[simrank.Edge]bool{}
		var ups []simrank.Update
		for len(ups) < 2+rng.Intn(3) {
			up := randomUpdate(rng, eng, seen)
			seen[up.Edge] = true
			ups = append(ups, up)
		}
		if err := eng.ApplyBatch(ups); err != nil {
			t.Fatal(err)
		}
	case r < 9: // grow
		if _, err := eng.AddNodes(1); err != nil {
			t.Fatal(err)
		}
	default:
		if err := eng.Recompute(); err != nil {
			t.Fatal(err)
		}
	}
}

// randomUpdate picks a random valid toggle: insert an absent edge or
// delete a present one, avoiding self-loops and edges already claimed
// by the batch under construction.
func randomUpdate(rng *rand.Rand, eng *simrank.ConcurrentEngine, taken map[simrank.Edge]bool) simrank.Update {
	n := eng.N()
	for {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		e := simrank.Edge{From: a, To: b}
		if taken[e] {
			continue
		}
		return simrank.Update{Edge: e, Insert: !eng.HasEdge(a, b)}
	}
}

// TestReplicationSurvivesLeaderRestart: kill the leader's HTTP frontend
// mid-stream, keep writing (the engine and its log live on), bring the
// frontend back at the same address — the follower reconnects from its
// applied epoch, catches up, and converges bit-identically. This is the
// in-process half of the chaos story; cmd/simrankd's e2e kills the
// whole process.
func TestReplicationSurvivesLeaderRestart(t *testing.T) {
	const n0 = 8
	baseEdges := []simrank.Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	opts := simrank.Options{C: 0.6, K: 8, Workers: 1}
	f := newFixture(t, n0, baseEdges, opts, replica.Options{
		StallTimeout: 200 * time.Millisecond,
		BackoffMin:   5 * time.Millisecond,
		BackoffMax:   50 * time.Millisecond,
	})
	f.start(t)

	rng := rand.New(rand.NewSource(42))
	for s := 0; s < 8; s++ {
		applyRandomStep(t, rng, f.leader)
	}
	f.waitApplied(t, f.leader.Epoch())

	// "Restart": drop every live stream connection but keep the listener.
	// CloseClientConnections severs the follower mid-tail exactly like a
	// crashed frontend; writes committed during the outage are only in
	// the WAL.
	f.srv.CloseClientConnections()
	for s := 0; s < 8; s++ {
		applyRandomStep(t, rng, f.leader)
	}
	f.waitApplied(t, f.leader.Epoch())

	oracle, err := simrank.NewEngine(n0, baseEdges, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := oracleAdvance(oracle, f.wal, f.leader.Epoch()); err != nil {
		t.Fatal(err)
	}
	assertBitEqual(t, "post-restart", oracle, f.follower)
	if st := f.rep.Stats(); st.Reconnects == 0 {
		t.Fatalf("follower never reconnected across the severed stream: %+v", st)
	}
}
