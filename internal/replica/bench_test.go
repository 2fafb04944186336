package replica_test

import (
	"context"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	simrank "repro"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/wal"
)

// benchLeader builds a leader engine logging to a real WAL and serving
// GET /wal over HTTP — the bench-side twin of newFixture, on testing.B.
func benchLeader(b *testing.B, n int, edges []simrank.Edge, opts simrank.Options) (*simrank.ConcurrentEngine, *httptest.Server) {
	b.Helper()
	w, err := wal.Open(b.TempDir(), wal.Options{Sync: wal.SyncNone})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { w.Close() }) //simrank:errok bench cleanup on a SyncNone log
	leader, err := simrank.NewConcurrentEngine(n, edges, opts)
	if err != nil {
		b.Fatal(err)
	}
	leader.SetWAL(w)
	srv := httptest.NewServer(server.New(leader, server.Config{WAL: w, HeartbeatInterval: 50 * time.Millisecond}))
	b.Cleanup(srv.Close)
	return leader, srv
}

// toggleEdge alternates insert/delete of one off-graph edge, so every
// call is a valid single-update commit, indefinitely.
func toggleEdge(b *testing.B, eng *simrank.ConcurrentEngine, i int) {
	b.Helper()
	up := simrank.Update{Edge: simrank.Edge{From: 4, To: 5}, Insert: i%2 == 0}
	if _, err := eng.Apply(up); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkReplicationCatchup measures how fast a cold follower drains a
// leader's backlog: records applied per second from first dial to
// caught-up, the number that bounds how long a freshly-seeded replica
// takes to start answering. Each iteration boots a fresh follower
// against the same pre-committed leader log.
func BenchmarkReplicationCatchup(b *testing.B) {
	const n, backlog = 16, 128
	opts := simrank.Options{C: 0.6, K: 8, Workers: 1}
	edges := []simrank.Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	leader, srv := benchLeader(b, n, edges, opts)
	for i := 0; i < backlog; i++ {
		toggleEdge(b, leader, i)
	}
	target := leader.Epoch()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		follower, err := simrank.NewConcurrentEngine(n, edges, opts)
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan struct{})
		rep := replica.New(follower, replica.Options{
			Leader: srv.URL,
			OnApplied: func(epoch uint64) {
				if epoch == target {
					close(done)
				}
			},
		})
		ctx, cancel := context.WithCancel(context.Background())
		runErr := make(chan error, 1)
		go func() { runErr <- rep.Run(ctx) }()
		select {
		case <-done:
		case err := <-runErr:
			b.Fatalf("replica died mid-catch-up: %v", err)
		}
		cancel()
		if err := <-runErr; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(backlog*b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkReplicationSteadyLag measures the steady-state replication
// lag: the time from a committed (acknowledged) leader write to that
// epoch being applied — and so visible — on a connected, caught-up
// follower. Reports mean ns/op plus sampled p50/p99 as custom metrics.
func BenchmarkReplicationSteadyLag(b *testing.B) {
	const n = 16
	opts := simrank.Options{C: 0.6, K: 8, Workers: 1}
	edges := []simrank.Edge{{From: 0, To: 1}, {From: 1, To: 2}}
	leader, srv := benchLeader(b, n, edges, opts)
	follower, err := simrank.NewConcurrentEngine(n, edges, opts)
	if err != nil {
		b.Fatal(err)
	}
	applied := make(chan uint64, 64)
	rep := replica.New(follower, replica.Options{
		Leader:    srv.URL,
		OnApplied: func(epoch uint64) { applied <- epoch },
	})
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- rep.Run(ctx) }()
	b.Cleanup(func() {
		cancel()
		if err := <-runErr; err != nil {
			b.Errorf("replica Run: %v", err)
		}
	})

	waitFor := func(target uint64) {
		for {
			select {
			case e := <-applied:
				if e >= target {
					return
				}
			case err := <-runErr:
				b.Fatalf("replica died mid-stream: %v", err)
			case <-time.After(30 * time.Second):
				b.Fatalf("follower never applied epoch %d (stats %+v)", target, rep.Stats())
			}
		}
	}
	// Warm up: one committed write, streamed end to end, so the timed
	// region starts with a live, caught-up connection.
	toggleEdge(b, leader, 0)
	waitFor(leader.Epoch())

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		toggleEdge(b, leader, i+1)
		waitFor(leader.Epoch())
		lat = append(lat, time.Since(t0))
	}
	b.StopTimer()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		p := func(q float64) float64 {
			return float64(lat[int(q*float64(len(lat)-1))].Nanoseconds())
		}
		b.ReportMetric(p(0.50), "p50-lag-ns")
		b.ReportMetric(p(0.99), "p99-lag-ns")
	}
}
