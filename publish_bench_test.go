package simrank

import (
	"fmt"
	"testing"

	"repro/internal/gen"
)

// BenchmarkPublish measures what MVCC publishing adds to a commit. One
// toggle stream — 64 edges absent from PrefAttach(n, 4, 1), drawn with
// seed 31, each inserted when absent and deleted when present — runs
// through Engine.Apply, which never seals, and then through
// ConcurrentEngine.Apply on the same engine, which seals and publishes
// one read view per commit. The sizes and settings are simbench's: dense
// at n = 2048, packed at 2000 and approx at 5000, C = 0.6, K = 15, one
// update worker. Each op is one commit; allocations are reported, so the
// ConcurrentEngine rows show the per-commit copy-on-write bytes. The
// approx row at n = 20000 (~0.4 GB of walks and postings) shows whether
// publishing grows with n.
func BenchmarkPublish(b *testing.B) {
	for _, tc := range []struct {
		backend Backend
		n       int
	}{{BackendDense, 2048}, {BackendPacked, 2000}, {BackendApprox, 5000}, {BackendApprox, 20000}} {
		b.Run(fmt.Sprintf("%s/n=%d", tc.backend, tc.n), func(b *testing.B) {
			g := gen.PrefAttach(tc.n, 4, 1)
			stream := absentEdges(g, 64, 31)
			eng, err := NewEngine(g.N(), g.Edges(), Options{
				C: 0.6, K: 15, Backend: tc.backend, Workers: 1,
				ApproxWalks: 128, ApproxSeed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			next := 0
			commit := func(b *testing.B, hasEdge func(i, j int) bool, apply func(Update) (UpdateStats, error)) {
				e := stream[next%len(stream)]
				next++
				if _, err := apply(Update{Edge: e, Insert: !hasEdge(e.From, e.To)}); err != nil {
					b.Fatal(err)
				}
			}
			run := func(b *testing.B, hasEdge func(i, j int) bool, apply func(Update) (UpdateStats, error)) {
				// One warm-up pass over the stream grows every pooled
				// buffer, and on ConcurrentEngine the second buffer.
				for range stream {
					commit(b, hasEdge, apply)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					commit(b, hasEdge, apply)
				}
			}
			b.Run("Engine", func(b *testing.B) { run(b, eng.HasEdge, eng.Apply) })
			ce := WrapEngine(eng)
			b.Run("ConcurrentEngine", func(b *testing.B) { run(b, ce.HasEdge, ce.Apply) })
		})
	}
}
