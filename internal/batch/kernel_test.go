package batch

import (
	"math/rand"
	"testing"

	"repro/internal/matrix"
)

// seedMatrixFormQ is the pre-kernel implementation of MatrixFormQ, kept
// as the reference the unified in-place/parallel kernel must reproduce
// bit-for-bit: it allocates a fresh dense result per iteration and runs
// the untiled column-scatter second product. Its one addition is the
// kernel's last step, a plain loop copying the upper triangle onto the
// lower one.
func seedMatrixFormQ(q *matrix.CSR, c float64, k int) *matrix.Dense {
	n := q.RowsN
	s := matrix.Identity(n).Scale(1 - c)
	tmp := matrix.NewDense(n, n)
	for iter := 0; iter < k; iter++ {
		tmp.Zero()
		for i := 0; i < q.RowsN; i++ {
			drow := tmp.Row(i)
			for kk := q.RowPtr[i]; kk < q.RowPtr[i+1]; kk++ {
				matrix.Axpy(q.Val[kk], s.Row(q.ColIdx[kk]), drow)
			}
		}
		next := matrix.NewDense(n, n)
		for i := 0; i < q.RowsN; i++ {
			for kk := q.RowPtr[i]; kk < q.RowPtr[i+1]; kk++ {
				col, v := q.ColIdx[kk], q.Val[kk]
				for a := 0; a < tmp.Rows; a++ {
					next.Data[a*next.Cols+i] += v * tmp.Data[a*tmp.Cols+col]
				}
			}
		}
		next.Scale(c)
		for d := 0; d < n; d++ {
			next.Add(d, d, 1-c)
		}
		s = next
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			s.Set(b, a, s.At(a, b))
		}
	}
	return s
}

// The unified kernel must be entrywise identical (exact float equality)
// to the seed implementation for every worker count: the per-entry
// accumulation order is fixed by the CSR layout, not the partition or the
// scatter tiling.
func TestMatrixFormKernelMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(60)
		g := randGraph(rng, n, 3*n)
		q := g.BackwardTransition()
		c := 0.3 + 0.5*rng.Float64()
		k := rng.Intn(9)
		want := seedMatrixFormQ(q, c, k)
		if d := matrix.MaxAbsDiff(MatrixFormQ(q, c, k), want); d != 0 {
			t.Fatalf("trial %d: MatrixFormQ differs from seed by %g", trial, d)
		}
		for _, workers := range []int{0, 1, 2, 3, 7, n + 5} {
			if d := matrix.MaxAbsDiff(MatrixFormParallel(q, c, k, workers), want); d != 0 {
				t.Fatalf("trial %d: MatrixFormParallel(workers=%d) differs from seed by %g", trial, workers, d)
			}
		}
	}
}

// MatrixFormInto must overwrite whatever its buffers previously held.
func TestMatrixFormIntoReusesDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 30, 90)
	q := g.BackwardTransition()
	want := seedMatrixFormQ(q, 0.6, 6)
	s := matrix.NewDense(30, 30)
	tmp := matrix.NewDense(30, 30)
	for i := range s.Data {
		s.Data[i] = rng.Float64()
		tmp.Data[i] = rng.Float64()
	}
	for _, workers := range []int{1, 3} {
		MatrixFormInto(s, tmp, q, 0.6, 6, workers)
		if d := matrix.MaxAbsDiff(s, want); d != 0 {
			t.Fatalf("workers=%d: dirty-buffer run differs by %g", workers, d)
		}
	}
}

func TestMatrixFormIntoDimensionPanic(t *testing.T) {
	g := randGraph(rand.New(rand.NewSource(3)), 10, 20)
	q := g.BackwardTransition()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mismatched buffers")
		}
	}()
	MatrixFormInto(matrix.NewDense(9, 9), matrix.NewDense(10, 10), q, 0.6, 3, 1)
}

// The varint group key of PartialSumsShared must keep the grouping
// semantics of the fmt-based seed: nodes share a partial-sum row iff
// their in-neighbor sets are identical.
func TestPartialSumsSharedGroupingExact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 6; trial++ {
		n := 4 + rng.Intn(40)
		g := randGraph(rng, n, 2*n)
		want := PartialSums(g, 0.6, 7)
		got := PartialSumsShared(g, 0.6, 7)
		if d := matrix.MaxAbsDiff(got, want); d != 0 {
			t.Fatalf("trial %d: shared grouping drifted %g from PartialSums", trial, d)
		}
	}
}
