package batch

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/race"
)

// SingleSource must equal the query column of the full matrix-form
// computation bit for bit: same kernels, same accumulation order, just
// restricted to one column.
func TestSingleSourceMatchesMatrixForm(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		n := 5 + rng.Intn(20)
		g := randGraph(rng, n, 3*n)
		full := MatrixForm(g, 0.6, 10)
		for query := 0; query < n; query++ {
			col, err := SingleSource(g, 0.6, 10, query)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < n; v++ {
				if d := col[v] - full.At(v, query); d > 1e-12 || d < -1e-12 {
					t.Fatalf("SingleSource(%d)[%d] = %v, full %v", query, v, col[v], full.At(v, query))
				}
			}
		}
	}
}

// seedSingleSource is SingleSource as it read a sparse Q, kept as the
// reference the graph form must reproduce bit for bit: Qᵀ·x through
// Dense.MulVecT, which skips a zero x[i] as the sparse product did, and
// Q·x through Dense.MulVec. The dense products add a ±0 for each zero
// entry of Q to a sum that starts at +0, which moves no bit.
func seedSingleSource(q *matrix.Dense, c float64, k, query int) []float64 {
	out := make([]float64, q.Rows)
	out[query] = 1 - c
	back := make([]float64, q.Rows)
	back[query] = 1
	ck := 1.0
	for t := 1; t <= k; t++ {
		back = q.MulVecT(back)
		ck *= c
		fwd := back
		for s := 0; s < t; s++ {
			fwd = q.MulVec(fwd)
		}
		matrix.Axpy((1-c)*ck, fwd, out)
	}
	return out
}

// Reading Q and Qᵀ from the graph's in-lists must reproduce the seed's
// products on every entry, −0 included, on graphs with self-loops and
// with nodes that have no in-links.
func TestSingleSourceMatchesCSRSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		n := 3 + rng.Intn(30)
		g := randGraph(rng, n, n+rng.Intn(2*n))
		q := g.BackwardTransition()
		c, k := 0.3+0.5*rng.Float64(), rng.Intn(12)
		for query := 0; query < n; query++ {
			got, err := SingleSource(g, c, k, query)
			if err != nil {
				t.Fatal(err)
			}
			want := seedSingleSource(q, c, k, query)
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("trial %d query %d: entry %d = %v, seed %v", trial, query, v, got[v], want[v])
				}
			}
		}
	}
}

// The single-source query is the O(n)-memory escape hatch for graphs too
// large to score fully, so its allocation count must not scale with the
// iteration count K (the old implementation left O(K²) transient vectors
// to the collector): a constant handful of O(n) buffers carries the
// whole series.
func TestSingleSourceAllocsIndependentOfK(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation-count assertion skipped under -race: detector instrumentation allocates, so AllocsPerRun counts are not meaningful")
	}
	rng := rand.New(rand.NewSource(17))
	g := randGraph(rng, 60, 240)
	measure := func(k int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := SingleSource(g, 0.6, k, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(5), measure(40)
	if small != large {
		t.Fatalf("allocations scale with K: %v allocs at K=5, %v at K=40", small, large)
	}
	// The five series buffers plus the error-free return path; a little
	// headroom for runtime accounting, but nowhere near K² vectors.
	if large > 8 {
		t.Fatalf("SingleSource allocated %v times, want the constant buffer set (≤ 8)", large)
	}
}
