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

// seedMatrixFormQ is the pre-kernel implementation of the matrix form,
// kept as the reference the in-place/parallel kernel must reproduce
// bit-for-bit: it allocates a fresh dense result per iteration and runs
// the untiled column-scatter second product. It visits each row's
// non-zero entries of Q in ascending column order, the order the seed's
// sparse rows stored them in. Its one addition is the kernel's last
// step, a plain loop copying the upper triangle onto the lower one.
func seedMatrixFormQ(q *matrix.Dense, c float64, k int) *matrix.Dense {
	n := q.Rows
	s := matrix.Identity(n).Scale(1 - c)
	tmp := matrix.NewDense(n, n)
	for iter := 0; iter < k; iter++ {
		tmp.Zero()
		for i := 0; i < n; i++ {
			drow := tmp.Row(i)
			for col, v := range q.Row(i) {
				if v != 0 {
					matrix.Axpy(v, s.Row(col), drow)
				}
			}
		}
		next := matrix.NewDense(n, n)
		for i := 0; i < n; i++ {
			for col, v := range q.Row(i) {
				if v == 0 {
					continue
				}
				for a := 0; a < n; a++ {
					next.Data[a*n+i] += v * tmp.Data[a*n+col]
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
// terms in the order of Q's rows, ascending columns, whatever the
// partition.
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
// and one Scratch must serve runs over different graphs: a list entry,
// a whole row or an accumulator cell left over from the previous graph
// would leak into the next result. MatrixFormScratch needs s to arrive
// +0, so s alone is cleared between its runs; the Scratch stays as the
// last run left it.
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

// The kernel's last step writes each listed upper cell of S to both
// mirror cells and mirrors a whole row's upper half, after clearing the
// sums the row holds below the diagonal. It must equal MirrorUpper of
// the matrix the lists describe, bit for bit, for every listing pattern
// of a pair (upper only, lower only, both, neither) and for a whole row.
// In kernel runs a cell is non-zero only when its mirror cell is, so
// there a lower-only listing covers +0 on both sides; only hand-built
// values reach the case the whole row's clear exists for.
func TestWriteSymMatchesMirrorUpper(t *testing.T) {
	const n, full = 70, 37 // two mark words per row, the second partial
	rng := rand.New(rand.NewSource(23))
	listed := make([][]bool, n)
	for a := range listed {
		listed[a] = make([]bool, n)
		listed[a][a] = true
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			// Pairs (0, 1)–(0, 4) take the four patterns in turn; the
			// rest draw one.
			pattern := b - 1
			if a > 0 || b > 4 {
				pattern = rng.Intn(4)
			}
			listed[a][b] = pattern == 0 || pattern == 2 // upper
			listed[b][a] = pattern == 1 || pattern == 2 // lower
		}
	}
	sc := NewScratch(n)
	s, want := matrix.NewDense(n, n), matrix.NewDense(n, n)
	sc.s.home = s
	for a := 0; a < n; a++ {
		blk := sc.s.begin(a)
		if a == full {
			row := sc.s.makeWhole(a)
			for b := range row {
				row[b] = rng.Float64()
			}
			copy(want.Row(a), row)
		} else {
			for b := 0; b < n; b++ {
				if listed[a][b] {
					v := rng.Float64()
					blk.cols = append(blk.cols, int32(b))
					blk.vals = append(blk.vals, v)
					want.Set(a, b, v)
				}
			}
		}
		blk.end[a%matrix.RowBlock] = len(blk.cols)
	}
	want.MirrorUpper()
	sc.writeSym(s)
	for i, v := range want.Data {
		if math.Float64bits(s.Data[i]) != math.Float64bits(v) {
			t.Fatalf("cell (%d, %d) = %v, MirrorUpper %v", i/n, i%n, s.Data[i], v)
		}
	}
	if sc.s.home != nil || sc.s.whole[full] != nil {
		t.Fatal("writeSym left an alias of s in the Scratch")
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
// lists must equal the seed reference over a dense Q in every cell, −0
// included, at one worker and at the decoded count (up to n + 2), the
// second run reusing the first run's s. Then one kept Scratch runs four
// times: MatrixFormUpper fills a packed upper triangle over the graph
// with every node in-linked from node 0, whose S fills up, so most rows
// turn whole in their own buffers; MatrixFormScratch runs over the graph
// with one edge toggled and over the graph itself, with only s cleared
// in between, so whole rows live in s; and MatrixFormUpper fills the
// triangle over the graph again. Each result must equal the seed's, the
// triangles its upper triangle. A list entry, a whole row or an
// accumulator cell left over from an earlier run would leak into a later
// result. Above 64 nodes a mark bitmap spans several words and the
// lists several arena blocks. Cycles matter: on a DAG Q is nilpotent, so
// an error made in an early iteration can vanish exactly after
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
	// A complete binary out-tree of depth 6: a leaf's row gains its
	// cousins one generation per iteration (1, 2, 4, … cells), so it
	// crosses the n/4 threshold (32 of 127 cells) in the fifth iteration
	// and is summed whole from then on.
	var tree []graph.Edge
	for v := 1; v < 127; v++ {
		tree = append(tree, graph.Edge{From: (v - 1) / 2, To: v})
	}
	f.Add(matrixFormFuzzSeed(1, 59, 5, 1, nil))
	f.Add(matrixFormFuzzSeed(8, 59, 6, 3, star(8, true)))
	f.Add(matrixFormFuzzSeed(8, 79, 6, 10, star(8, false)))
	f.Add(matrixFormFuzzSeed(9, 59, 8, 2, cycle))
	f.Add(matrixFormFuzzSeed(40, 59, 8, 3, gen.PrefAttach(40, 4, 1).Edges()))
	f.Add(matrixFormFuzzSeed(64, 59, 8, 2, gen.ER(64, 192, 2).Edges()))
	f.Add(matrixFormFuzzSeed(65, 59, 8, 3, gen.ER(65, 195, 3).Edges()))
	// Dense and cyclic: S fills to ~all non-zero within a few iterations,
	// so full mark words and the whole-row loops run.
	f.Add(matrixFormFuzzSeed(130, 59, 8, 3, gen.ER(130, 1040, 4).Edges()))
	f.Add(matrixFormFuzzSeed(127, 59, 8, 2, tree))
	// Sparse and cyclic at the dense seed's n: the kept Scratch comes to
	// it from a full S, with every row's spare buffer allocated.
	f.Add(matrixFormFuzzSeed(130, 59, 8, 3, gen.ER(130, 130, 5).Edges()))
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
		filled := g.Clone()
		for v := 0; v < n; v++ {
			filled.AddEdge(0, v)
		}
		// The K and worker bytes double as the toggled edge, so it is
		// present in some inputs and absent in others.
		toggled := g.Clone()
		if u, v := int(data[2])%n, int(data[3])%n; !toggled.RemoveEdge(u, v) {
			toggled.AddEdge(u, v)
		}
		sc := NewScratch(n)
		tri, start := make([]float64, n*(n+1)/2), make([]int, n)
		for a, off := 0, 0; a < n; a++ {
			start[a] = off
			off += n - a
		}
		upper := func(run string, g *graph.DiGraph, want *matrix.Dense) {
			clear(tri)
			MatrixFormUpper(sc, g, c, k, workers, func(a int) []float64 { return tri[start[a]:] })
			for a := 0; a < n; a++ {
				for b := a; b < n; b++ {
					if got, v := tri[start[a]+b-a], want.At(a, b); math.Float64bits(got) != math.Float64bits(v) {
						t.Fatalf("%s: cell (%d, %d) = %v, seed %v", run, a, b, got, v)
					}
				}
			}
		}
		upper("kept Scratch, MatrixFormUpper, filled graph", filled, seedMatrixFormQ(filled.BackwardTransition(), c, k))
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
		upper("kept Scratch, MatrixFormUpper, graph", g, want)
	})
}

// BenchmarkMatrixForm times what a dense Recompute runs at simbench's K
// — a clear of s, then the kernel on a kept Scratch — at one and two
// workers, on a graph whose S stays sparse and one whose S fills up:
// PrefAttach(2048, 4, 1), simbench's boot graph, is a DAG with S ~1%
// non-zero, so the support lists skip nearly every cell;
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
