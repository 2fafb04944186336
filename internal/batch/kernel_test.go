package batch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/matrix"
)

// seedMatrixFormQ is the pre-kernel implementation of the matrix form
// over a CSR of Q, kept as the reference the in-place/parallel kernel
// must reproduce bit-for-bit: it allocates a fresh dense result per
// iteration and runs the untiled column-scatter second product. Its one
// addition is the kernel's last step, a plain loop copying the upper
// triangle onto the lower one.
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

// matrixFormWorkers runs MatrixFormInto at the given worker count into
// fresh buffers.
func matrixFormWorkers(g *graph.DiGraph, c float64, k, workers int) *matrix.Dense {
	n := g.N()
	s := matrix.NewDense(n, n)
	MatrixFormInto(s, matrix.NewDense(n, n), g, c, k, workers)
	return s
}

// The kernel must be entrywise identical (exact float equality) to the
// seed implementation for every worker count: each cell adds the same
// terms in the order of Q's sorted CSR rows, whatever the partition.
func TestMatrixFormKernelMatchesSeedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		n := 5 + rng.Intn(60)
		g := randGraph(rng, n, 3*n)
		q := g.BackwardTransition()
		c := 0.3 + 0.5*rng.Float64()
		k := rng.Intn(9)
		want := seedMatrixFormQ(q, c, k)
		if d := matrix.MaxAbsDiff(MatrixForm(g, c, k), want); d != 0 {
			t.Fatalf("trial %d: MatrixForm differs from seed by %g", trial, d)
		}
		for _, workers := range []int{0, 1, 2, 3, 7, n + 5} {
			if d := matrix.MaxAbsDiff(matrixFormWorkers(g, c, k, workers), want); d != 0 {
				t.Fatalf("trial %d: MatrixFormInto(workers=%d) differs from seed by %g", trial, workers, d)
			}
		}
	}
}

// MatrixFormInto must overwrite whatever its buffers previously held,
// and one Scratch must serve runs over different graphs: a support flag
// or a cell of T left over from the previous graph would leak into the
// next result. MatrixFormScratch needs s to arrive +0, so s alone is
// cleared between its runs; T and the flags stay as the last run left
// them.
func TestMatrixFormIntoReusesDirtyBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randGraph(rng, 30, 90)
	want := seedMatrixFormQ(g.BackwardTransition(), 0.6, 6)
	s := matrix.NewDense(30, 30)
	tmp := matrix.NewDense(30, 30)
	for i := range s.Data {
		s.Data[i] = rng.Float64()
		tmp.Data[i] = rng.Float64()
	}
	for _, workers := range []int{1, 3} {
		MatrixFormInto(s, tmp, g, 0.6, 6, workers)
		if d := matrix.MaxAbsDiff(s, want); d != 0 {
			t.Fatalf("workers=%d: dirty-buffer run differs by %g", workers, d)
		}
	}
	const n = 130
	sc := NewScratch(n)
	s = matrix.NewDense(n, n)
	for _, workers := range []int{1, 3} {
		for trial, g := range []*graph.DiGraph{randGraph(rng, n, 6*n), gen.PrefAttach(n, 4, 1), randGraph(rng, n, 2*n)} {
			s.Zero()
			MatrixFormScratch(s, sc, g, 0.6, 8, workers)
			if d := matrix.MaxAbsDiff(s, seedMatrixFormQ(g.BackwardTransition(), 0.6, 8)); d != 0 {
				t.Fatalf("workers=%d graph %d: reused Scratch differs by %g", workers, trial, d)
			}
		}
	}
}

// The kernel's last step mirrors only flagged cells. It must equal
// MirrorUpper bit for bit whenever unflagged cells hold +0, for every
// flag pattern of a pair (upper only, lower only, both, neither) and for
// a fully flagged row. In kernel runs a cell is non-zero only when its
// mirror cell is, so there a lower-only flag covers +0 on both sides;
// only hand-built values reach the case the lower-flag half exists for.
func TestMirrorMatchesMirrorUpper(t *testing.T) {
	const n = 70 // two bitmap words per row, the second partial
	rng := rand.New(rand.NewSource(23))
	sc := NewScratch(n)
	s := matrix.NewDense(n, n)
	flag := func(a, b int) {
		sc.sBits[a*sc.words+b>>6] |= 1 << (b & 63)
		s.Set(a, b, rng.Float64())
	}
	for a := 0; a < n; a++ {
		flag(a, a)
		for b := a + 1; b < n; b++ {
			// Pairs (0, 1)–(0, 4) take the four patterns in turn; the
			// rest draw one.
			pattern := b - 1
			if a > 0 || b > 4 {
				pattern = rng.Intn(4)
			}
			if pattern == 0 || pattern == 2 {
				flag(a, b) // upper
			}
			if pattern == 1 || pattern == 2 {
				flag(b, a) // lower
			}
		}
	}
	const full = 37
	fillFlags(sc.sBits[full*sc.words:(full+1)*sc.words], n)
	for b := range s.Row(full) {
		s.Set(full, b, rng.Float64())
	}
	want := s.Clone()
	want.MirrorUpper()
	sc.mirror(s)
	for i, v := range want.Data {
		if math.Float64bits(s.Data[i]) != math.Float64bits(v) {
			t.Fatalf("cell (%d, %d) = %v, MirrorUpper %v", i/n, i%n, s.Data[i], v)
		}
	}
}

func TestMatrixFormIntoDimensionPanic(t *testing.T) {
	g := randGraph(rand.New(rand.NewSource(3)), 10, 20)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for mismatched buffers")
		}
	}()
	MatrixFormInto(matrix.NewDense(9, 9), matrix.NewDense(10, 10), g, 0.6, 3, 1)
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

// matrixFormFuzzSeed encodes a FuzzMatrixFormMatchesSeed input: n, C,
// K and the worker count, then one (from, to) byte pair per edge.
func matrixFormFuzzSeed(n, cByte, k, workers int, edges []graph.Edge) []byte {
	b := []byte{byte(n - 1), byte(cByte), byte(k), byte(workers - 1)}
	for _, e := range edges {
		b = append(b, byte(e.From), byte(e.To))
	}
	return b
}

// FuzzMatrixFormMatchesSeed: on any graph of up to 200 nodes, self-loops,
// cycles and nodes without in-links included, the kernel over the graph's
// lists must equal the seed reference over the CSR of Q in every cell, −0
// included, at one worker and at the decoded count (up to n + 2), the
// second run reusing the first run's buffers. Then one kept Scratch runs
// over the graph with one edge toggled and over the graph itself, with
// only s cleared in between, so every cell of T left over from the other
// graph must be cleared through its flag. Above 64 nodes a support
// bitmap row spans several words. Cycles matter: on a DAG Q is nilpotent,
// so an error made in an early iteration can vanish exactly after
// depth-many iterations.
func FuzzMatrixFormMatchesSeed(f *testing.F) {
	star := func(n int, in bool) []graph.Edge {
		var es []graph.Edge
		for i := 1; i < n; i++ {
			if in {
				es = append(es, graph.Edge{From: i, To: 0})
			} else {
				es = append(es, graph.Edge{From: 0, To: i})
			}
		}
		return es
	}
	var cycle []graph.Edge
	for i := 0; i < 9; i++ {
		cycle = append(cycle, graph.Edge{From: i, To: (i + 1) % 9})
	}
	f.Add(matrixFormFuzzSeed(1, 59, 5, 1, nil))
	f.Add(matrixFormFuzzSeed(8, 59, 6, 3, star(8, true)))
	f.Add(matrixFormFuzzSeed(8, 79, 6, 10, star(8, false)))
	f.Add(matrixFormFuzzSeed(9, 59, 8, 2, cycle))
	f.Add(matrixFormFuzzSeed(40, 59, 8, 3, gen.PrefAttach(40, 4, 1).Edges()))
	f.Add(matrixFormFuzzSeed(64, 59, 8, 2, gen.ER(64, 192, 2).Edges()))
	f.Add(matrixFormFuzzSeed(65, 59, 8, 3, gen.ER(65, 195, 3).Edges()))
	// Dense and cyclic: S fills to ~all non-zero within a few iterations,
	// so full bitmap words and the whole-row loops run.
	f.Add(matrixFormFuzzSeed(130, 59, 8, 3, gen.ER(130, 1040, 4).Edges()))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		n := 1 + int(data[0])%200
		c := float64(1+int(data[1])%99) / 100
		k := int(data[2]) % 9
		workers := 1 + int(data[3])%(n+2)
		g := graph.New(n)
		for p := data[4:]; len(p) >= 2; p = p[2:] {
			g.AddEdge(int(p[0])%n, int(p[1])%n)
		}
		want := seedMatrixFormQ(g.BackwardTransition(), c, k)
		s, tmp := matrix.NewDense(n, n), matrix.NewDense(n, n)
		check := func(run string, want *matrix.Dense) {
			for i, v := range want.Data {
				if math.Float64bits(s.Data[i]) != math.Float64bits(v) {
					t.Fatalf("%s: cell (%d, %d) = %v, seed %v", run, i/n, i%n, s.Data[i], v)
				}
			}
		}
		for _, w := range []int{1, workers} {
			MatrixFormInto(s, tmp, g, c, k, w)
			check(fmt.Sprintf("MatrixFormInto workers=%d", w), want)
		}
		// The K and worker bytes double as the toggled edge, so it is
		// present in some inputs and absent in others.
		toggled := g.Clone()
		if u, v := int(data[2])%n, int(data[3])%n; !toggled.RemoveEdge(u, v) {
			toggled.AddEdge(u, v)
		}
		sc := NewScratch(n)
		for _, run := range []struct {
			name string
			g    *graph.DiGraph
			want *matrix.Dense
		}{
			{"kept Scratch, toggled graph", toggled, seedMatrixFormQ(toggled.BackwardTransition(), c, k)},
			{"kept Scratch, graph", g, want},
		} {
			clear(s.Data)
			MatrixFormScratch(s, sc, run.g, c, k, workers)
			check(run.name, run.want)
		}
	})
}

// BenchmarkMatrixForm times what a dense Recompute runs at simbench's K
// — a clear of s, then the kernel on a kept Scratch — at one and two
// workers, on a graph whose S stays sparse and one whose S fills up:
// PrefAttach(2048, 4, 1), simbench's boot graph, is a DAG with S ~1%
// non-zero, so the support bitmaps skip nearly every cell;
// ER(1000, 4000, 1) is cyclic with S ~95% non-zero, so nearly every row
// takes the whole-row loops.
func BenchmarkMatrixForm(b *testing.B) {
	for _, gc := range []struct {
		name string
		g    *graph.DiGraph
	}{
		{"PrefAttach(2048,4,1)", gen.PrefAttach(2048, 4, 1)},
		{"ER(1000,4000,1)", gen.ER(1000, 4000, 1)},
	} {
		n := gc.g.N()
		s, sc := matrix.NewDense(n, n), NewScratch(n)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", gc.name, workers), func(b *testing.B) {
				for b.Loop() {
					clear(s.Data)
					MatrixFormScratch(s, sc, gc.g, 0.6, 15, workers)
				}
			})
		}
	}
}
