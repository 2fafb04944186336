package batch

import (
	"runtime"

	"repro/internal/matrix"
)

// MatrixFormInto is the unified matrix-form kernel behind MatrixFormQ and
// MatrixFormParallel: it computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ
// into s, ping-ponging between s and tmp so the whole iteration allocates
// nothing. Both buffers must be n×n (n = q's row count); tmp's contents
// are scratch. workers ≤ 0 selects GOMAXPROCS. The result is exactly
// symmetric: the last step mirrors the upper triangle onto the lower.
//
// Each of the two sparse-dense products per iteration is row-partitioned
// across workers (the CPU analogue of He et al.'s parallel SimRank
// aggregation [8], which the paper's related work contrasts with its
// pruning approach). Per output row the floating-point accumulation order
// is fixed by the CSR layout of q, not by the partition, so the result is
// bit-identical for every worker count — callers may switch between
// sequential and parallel freely without perturbing exact tests.
//
//simrank:noalloc
func MatrixFormInto(s, tmp *matrix.Dense, q *matrix.CSR, c float64, k, workers int) {
	n := q.RowsN
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
		// Serial fast path: calling the kernels directly (instead of
		// through ParallelRows) keeps the closures from escaping, so a
		// one-worker recompute performs zero heap allocations.
		for iter := 0; iter < k; iter++ {
			matrix.SpMulDense(tmp, q, s, 0, n)
			matrix.SpMulDenseT(s, q, tmp, c, 0, n)
			for d := 0; d < n; d++ {
				s.Add(d, d, 1-c)
			}
		}
	} else {
		for iter := 0; iter < k; iter++ {
			// tmp = Q·S, rows split across workers.
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) {
				matrix.SpMulDense(tmp, q, s, lo, hi)
			})
			// s = C·(tmp·Qᵀ) + (1−C)·I; row a of the result reads only row a
			// of tmp, so the same row partition is race-free.
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) {
				matrix.SpMulDenseT(s, q, tmp, c, lo, hi)
				for d := lo; d < hi; d++ {
					s.Add(d, d, 1-c)
				}
			})
		}
	}
	// Cells (a, b) and (b, a) add the same terms grouped in different
	// orders (the first product sums over a's in-neighbours for one and
	// b's for the other), so they can differ in the last bits. Copying the
	// upper triangle down makes S exactly symmetric, which lets the
	// incremental updates read a row wherever the paper reads a column.
	s.MirrorUpper()
}

// MatrixFormParallel computes the same matrix-form fixed point as
// MatrixFormQ with the two sparse-dense products of each iteration
// row-partitioned across workers. workers ≤ 0 selects GOMAXPROCS.
//
// The output is bit-identical to MatrixFormQ: both are the same unified
// kernel (MatrixFormInto), only the row partition differs.
func MatrixFormParallel(q *matrix.CSR, c float64, k, workers int) *matrix.Dense {
	n := q.RowsN
	s := matrix.NewDense(n, n)
	MatrixFormInto(s, matrix.NewDense(n, n), q, c, k, workers)
	return s
}
