package batch

import (
	"runtime"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// MatrixFormInto is the matrix-form kernel behind MatrixForm: it
// computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ into s, ping-ponging
// between s and tmp so the whole iteration allocates nothing. Both
// buffers must be n×n (n = g.N()); tmp's contents are scratch.
// workers ≤ 0 selects GOMAXPROCS. The result is exactly symmetric: the
// last step mirrors the upper triangle onto the lower.
//
// Q and Qᵀ are read in place from the graph's sorted lists: row a of Q
// is I(a) weighted 1/|I(a)|, and row x of Qᵀ is O(x), whose entry b
// weighs 1/|I(b)|. Each product writes an output row from one row of
// its input, so both are row-partitioned across workers (the CPU
// analogue of He et al.'s parallel SimRank aggregation [8], which the
// paper's related work contrasts with its pruning approach). Every cell
// adds the same terms in the same order whatever the partition, so the
// result is bit-identical for every worker count — callers may switch
// between sequential and parallel freely without perturbing exact tests.
//
//simrank:noalloc
func MatrixFormInto(s, tmp *matrix.Dense, g *graph.DiGraph, c float64, k, workers int) {
	n := g.N()
	if s.Rows != n || s.Cols != n || tmp.Rows != n || tmp.Cols != n {
		panic("batch: MatrixFormInto buffer dimension mismatch")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	// S₀ = (1−C)·Iₙ.
	s.Zero()
	for d := 0; d < n; d++ {
		s.Set(d, d, 1-c)
	}
	if workers <= 1 {
		// Serial fast path: calling the row kernels directly (instead of
		// through ParallelRows) keeps the closures from escaping, so a
		// one-worker recompute performs zero heap allocations.
		for iter := 0; iter < k; iter++ {
			mulQ(tmp, s, g, 0, n)
			mulQT(s, tmp, g, c, 0, n)
		}
	} else {
		for iter := 0; iter < k; iter++ {
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) { mulQ(tmp, s, g, lo, hi) })
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) { mulQT(s, tmp, g, c, lo, hi) })
		}
	}
	// Cells (a, b) and (b, a) add the same terms grouped in different
	// orders (the first product sums over a's in-neighbours for one and
	// b's for the other), so they can differ in the last bits. Copying the
	// upper triangle down makes S exactly symmetric, which lets the
	// incremental updates read a row wherever the paper reads a column.
	s.MirrorUpper()
}

// mulQ writes rows [lo, hi) of t = Q·s: row a is Σ_{i ∈ I(a)} s[i]/|I(a)|,
// added in ascending i. A row with an empty in-list is only cleared. Row
// a reads only s, so disjoint ranges are race-free.
//
//simrank:noalloc
func mulQ(t, s *matrix.Dense, g *graph.DiGraph, lo, hi int) {
	for a := lo; a < hi; a++ {
		row := t.Row(a)
		clear(row)
		in := g.In(a)
		w := 1 / float64(len(in))
		for _, i := range in {
			matrix.Axpy(w, s.Row(int(i)), row)
		}
	}
}

// mulQT writes rows [lo, hi) of s = C·(t·Qᵀ) + (1−C)·Iₙ. Row a is
// Σ_x t[a][x]·(row x of Qᵀ) over ascending x, so cell (a, b) adds
// t[a][x]/|I(b)| for x ∈ I(b) in ascending order. A zero t[a][x] is
// skipped, which moves no bit: the sum starts at +0 and never becomes
// −0. Row a reads only row a of t, so disjoint ranges are race-free.
//
//simrank:noalloc
func mulQT(s, t *matrix.Dense, g *graph.DiGraph, c float64, lo, hi int) {
	for a := lo; a < hi; a++ {
		row := s.Row(a)
		clear(row)
		for x, v := range t.Row(a) {
			if v == 0 {
				continue
			}
			for _, b := range g.Out(x) {
				row[b] += 1 / float64(len(g.In(int(b)))) * v
			}
		}
		matrix.ScaleVec(c, row)
		row[a] += 1 - c
	}
}
