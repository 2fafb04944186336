package simrank

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/simstore"
)

// BenchmarkApproxRepair is the cost model of the writable approx tier:
// incremental walk repair vs full rebuild on an n = 100,000 graph. The out-degree of the
// toggled edge's endpoint is swept because that is what sets the
// affected-walk fraction — a walk visits node j with probability
// governed by how many nodes list j as an in-neighbor — so the sweep
// ranges from "a handful of owner walks" to "a hub many walks cross".
// The fraction actually resampled per update rides along as a custom
// metric; the rebuild sub-benchmark is the O(n·W·L) baseline every
// repair is supposed to beat by orders of magnitude.
func BenchmarkApproxRepair(b *testing.B) {
	const (
		n       = 100_000
		c       = 0.6
		walkLen = 10
		walks   = 8
		seed    = 17
	)
	baseGraph := func() *graph.DiGraph {
		g := graph.New(n)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < n; i++ {
			g.AddEdge(i, (i+1)%n) // ring: every node has an in-neighbor
		}
		for g.M() < 3*n {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		return g
	}
	for _, deg := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("repair/outdeg=%d", deg), func(b *testing.B) {
			g := baseGraph()
			const j = n / 2
			rng := rand.New(rand.NewSource(int64(deg)))
			for added := 0; added < deg; {
				to := rng.Intn(n)
				if to != j && !g.HasEdge(j, to) {
					g.AddEdge(j, to)
					added++
				}
			}
			a, err := simstore.NewApprox(g, c, walkLen, walks, seed)
			if err != nil {
				b.Fatal(err)
			}
			const aux = 3
			insert := !g.HasEdge(aux, j)
			before, _ := a.RepairStats()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				up := graph.Update{Edge: graph.Edge{From: aux, To: j}, Insert: insert}
				a.ApplyUpdate(up)
				insert = !insert
			}
			b.StopTimer()
			after, _ := a.RepairStats()
			perOp := float64(after-before) / float64(b.N)
			b.ReportMetric(perOp, "resampled-walks/op")
			b.ReportMetric(perOp/float64(n*walks), "resampled-fraction/op")
		})
	}
	b.Run("rebuild/full", func(b *testing.B) {
		g := baseGraph()
		for i := 0; i < b.N; i++ {
			if _, err := simstore.NewApprox(g, c, walkLen, walks, seed); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkApproxTopK times one approx top-k read, TopKRow(q, 10), on a
// sealed store with simrankd's approx settings (C 0.6, L = K = 15, 128
// walks, seed 1) over PrefAttach(n, 4, 1), simbench's logged graph at
// n = 5000. At n = 20000 the walks take ~164 MB. The query sets:
//   - dead: the hottest row with no in-links, whose walks all die at
//     step 1;
//   - live: the hottest row with in-links;
//   - zipf: simbench's /topkfor rows, Zipf(1.1) over its hot ranking.
func BenchmarkApproxTopK(b *testing.B) {
	for _, n := range []int{5000, 20000} {
		g := gen.PrefAttach(n, 4, 1)
		a, err := simstore.NewApprox(g, 0.6, 15, 128, 1)
		if err != nil {
			b.Fatal(err)
		}
		view := a.Seal().(simstore.Sampler)
		hot := rand.New(rand.NewSource(1 ^ 0x5eed)).Perm(n)
		dead, live := -1, -1
		for _, v := range hot {
			if g.InDegree(v) == 0 && dead < 0 {
				dead = v
			}
			if g.InDegree(v) > 0 && live < 0 {
				live = v
			}
		}
		for _, q := range []struct {
			name string
			row  int
		}{{"dead", dead}, {"live", live}} {
			b.Run(fmt.Sprintf("n=%d/%s", n, q.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					view.TopKRow(q.row, 10)
				}
			})
		}
		b.Run(fmt.Sprintf("n=%d/zipf", n), func(b *testing.B) {
			zipf := rand.NewZipf(rand.New(rand.NewSource(1)), 1.1, 1, uint64(n-1))
			for i := 0; i < b.N; i++ {
				view.TopKRow(hot[zipf.Uint64()], 10)
			}
		})
	}
}
