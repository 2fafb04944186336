package simrank

import (
	"math/rand"
	"testing"
)

// BenchmarkBackends is the per-backend serving profile: TopKFor latency
// with the store's resident bytes attached as a custom metric, so the
// memory/latency trade of the three tiers shows on one n=2000 graph.
func BenchmarkBackends(b *testing.B) {
	const n = 2000
	rng := rand.New(rand.NewSource(90))
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges, Edge{From: i, To: (i + 1) % n})
	}
	for len(edges) < 3*n {
		edges = append(edges, Edge{From: rng.Intn(n), To: rng.Intn(n)})
	}
	for _, backend := range []Backend{BackendDense, BackendPacked, BackendApprox} {
		b.Run(string(backend)+"/TopKFor", func(b *testing.B) {
			eng, err := NewEngine(n, edges, Options{K: 5, Backend: backend, ApproxWalks: 4})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.TopKFor(i%n, 10)
			}
			b.ReportMetric(float64(eng.StoreMemBytes()), "store-bytes")
		})
	}
}
