package batch

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/matrix"
)

func randGraph(rng *rand.Rand, n, m int) *graph.DiGraph {
	if max := n * n; m > max/2 {
		m = max / 2 // keep headroom so random probing terminates fast
	}
	g := graph.New(n)
	for g.M() < m {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return g
}

func TestJehWidomBaseCases(t *testing.T) {
	// 0→1, 0→2: s(1,2) = C (both have single common in-neighbor 0).
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	s := JehWidom(g, 0.8, 10)
	if math.Abs(s.At(1, 2)-0.8) > 1e-12 {
		t.Fatalf("s(1,2) = %v, want 0.8", s.At(1, 2))
	}
	if s.At(0, 0) != 1 || s.At(1, 1) != 1 {
		t.Fatal("diagonal must be 1")
	}
	if s.At(0, 1) != 0 {
		t.Fatalf("s(0,1) = %v, want 0 (node 0 has no in-neighbors)", s.At(0, 1))
	}
}

func TestJehWidomTwoCycle(t *testing.T) {
	// 0↔1 cycle: s(0,1) stays 0 (in-neighbor pairs never coincide).
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 0}})
	s := JehWidom(g, 0.6, 20)
	if s.At(0, 1) != 0 {
		t.Fatalf("s(0,1) = %v, want 0", s.At(0, 1))
	}
}

func TestJehWidomSymmetricRange(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := randGraph(rng, 12, 30)
	s := JehWidom(g, 0.8, 8)
	if !s.IsSymmetric(1e-12) {
		t.Fatal("SimRank must be symmetric")
	}
	for _, v := range s.Data {
		if v < 0 || v > 1+1e-12 {
			t.Fatalf("score %v outside [0,1]", v)
		}
	}
}

func TestJehWidomMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	g := randGraph(rng, 10, 25)
	prev := JehWidom(g, 0.7, 2)
	for _, k := range []int{4, 6, 8} {
		cur := JehWidom(g, 0.7, k)
		for i := range cur.Data {
			if cur.Data[i] < prev.Data[i]-1e-12 {
				t.Fatalf("scores must be non-decreasing in K (k=%d)", k)
			}
		}
		prev = cur
	}
}

func TestPartialSumsMatchesJehWidom(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(rng, 4+rng.Intn(10), 10+rng.Intn(30))
		a := JehWidom(g, 0.8, 7)
		b := PartialSums(g, 0.8, 7)
		if matrix.MaxAbsDiff(a, b) > 1e-12 {
			t.Fatalf("trial %d: partial sums diverge by %g", trial, matrix.MaxAbsDiff(a, b))
		}
	}
}

func TestPartialSumsSharedMatchesJehWidom(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(rng, 4+rng.Intn(10), 10+rng.Intn(30))
		a := JehWidom(g, 0.6, 7)
		b := PartialSumsShared(g, 0.6, 7)
		if matrix.MaxAbsDiff(a, b) > 1e-12 {
			t.Fatalf("trial %d: shared variant diverges by %g", trial, matrix.MaxAbsDiff(a, b))
		}
	}
}

func TestMatrixFormSeries(t *testing.T) {
	// MatrixForm must equal the truncated series
	// (1−C)·Σ_{k=0..K} C^k·Q^k·(Qᵀ)^k (Eq. 34).
	rng := rand.New(rand.NewSource(35))
	g := randGraph(rng, 8, 20)
	c, kIter := 0.8, 6
	got := MatrixForm(g, c, kIter)
	qd := g.BackwardTransition()
	n := g.N()
	want := matrix.NewDense(n, n)
	qk := matrix.Identity(n)
	for k := 0; k <= kIter; k++ {
		term := matrix.Mul(qk, qk.T())
		want.AddMat((1-c)*math.Pow(c, float64(k)), term)
		qk = matrix.Mul(qd, qk)
	}
	if d := matrix.MaxAbsDiff(got, want); d > 1e-10 {
		t.Fatalf("series mismatch %g", d)
	}
}

func TestMatrixFormDiagonalBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	g := randGraph(rng, 10, 30)
	c := 0.8
	s := MatrixForm(g, c, 15)
	for i := 0; i < g.N(); i++ {
		d := s.At(i, i)
		if d < 1-c-1e-12 || d > 1+1e-12 {
			t.Fatalf("diag[%d] = %v outside [1−C, 1]", i, d)
		}
	}
	if !s.IsSymmetric(1e-12) {
		t.Fatal("matrix-form S must be symmetric")
	}
}

func TestMatrixFormFixedPointResidual(t *testing.T) {
	// After K iterations, ‖S_K − (C·Q·S_K·Qᵀ + (1−C)I)‖_max ≤ C^{K+1}.
	rng := rand.New(rand.NewSource(37))
	g := randGraph(rng, 9, 25)
	c, kIter := 0.6, 12
	s := MatrixForm(g, c, kIter)
	qd := g.BackwardTransition()
	rhs := matrix.Mul(matrix.Mul(qd, s), qd.T()).Scale(c)
	for i := 0; i < g.N(); i++ {
		rhs.Add(i, i, 1-c)
	}
	if d := matrix.MaxAbsDiff(s, rhs); d > math.Pow(c, float64(kIter)+1)+1e-12 {
		t.Fatalf("fixed-point residual %g too large", d)
	}
}

func TestMatrixFormSingleCommonParent(t *testing.T) {
	// 0→1, 0→2: matrix form gives s(1,2) = C(1−C) (only the k=1 term).
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	c := 0.8
	s := MatrixForm(g, c, 10)
	if math.Abs(s.At(1, 2)-c*(1-c)) > 1e-12 {
		t.Fatalf("s(1,2) = %v, want %v", s.At(1, 2), c*(1-c))
	}
}

func TestValidatePanics(t *testing.T) {
	g := graph.New(2)
	for _, fn := range []func(){
		func() { JehWidom(nil, 0.5, 1) },
		func() { JehWidom(g, 0, 1) },
		func() { JehWidom(g, 1, 1) },
		func() { JehWidom(g, 0.5, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("want panic")
				}
			}()
			fn()
		}()
	}
}

func TestZeroIterations(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	s := JehWidom(g, 0.8, 0)
	if matrix.MaxAbsDiff(s, matrix.Identity(3)) != 0 {
		t.Fatal("K=0 iterative form must be I")
	}
	m := MatrixForm(g, 0.8, 0)
	if matrix.MaxAbsDiff(m, matrix.Identity(3).Scale(0.2)) > 1e-15 {
		t.Fatal("K=0 matrix form must be (1−C)·I")
	}
}

// Property: all three iterative-form algorithms agree on random graphs.
func TestQuickIterativeAlgorithmsAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randGraph(rng, n, 2*n)
		c := 0.3 + 0.5*rng.Float64()
		k := 1 + rng.Intn(6)
		a := JehWidom(g, c, k)
		b := PartialSums(g, c, k)
		d := PartialSumsShared(g, c, k)
		return matrix.MaxAbsDiff(a, b) < 1e-12 && matrix.MaxAbsDiff(a, d) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix-form scores lie in [0,1] and are symmetric.
func TestQuickMatrixFormInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randGraph(rng, n, 3*n)
		s := MatrixForm(g, 0.8, 8)
		if !s.IsSymmetric(1e-12) {
			return false
		}
		for _, v := range s.Data {
			if v < -1e-12 || v > 1+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleSourceMatchesMatrixColumn(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(rng, 5+rng.Intn(10), 25)
		c, k := 0.6, 8
		full := MatrixForm(g, c, k)
		for query := 0; query < g.N(); query += 2 {
			col, err := SingleSource(g, c, k, query)
			if err != nil {
				t.Fatal(err)
			}
			want := full.Col(query)
			for i := range col {
				if math.Abs(col[i]-want[i]) > 1e-10 {
					t.Fatalf("trial %d query %d: col[%d] = %v, want %v", trial, query, i, col[i], want[i])
				}
			}
		}
	}
}

func TestSingleSourceErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	if _, err := SingleSource(g, 0.6, 5, -1); err == nil {
		t.Fatal("want error for bad query")
	}
	if _, err := SingleSource(g, 0.6, 5, 3); err == nil {
		t.Fatal("want error for out-of-range query")
	}
	if _, err := SingleSource(g, 0, 5, 0); err == nil {
		t.Fatal("want error for bad C")
	}
	if _, err := SingleSource(g, 0.6, -1, 0); err == nil {
		t.Fatal("want error for negative K")
	}
}

func TestSingleSourceZeroIterations(t *testing.T) {
	g := graph.FromEdges(2, []graph.Edge{{From: 0, To: 1}})
	col, err := SingleSource(g, 0.8, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(col[1]-0.2) > 1e-12 || col[0] != 0 {
		t.Fatalf("K=0 column = %v", col)
	}
}
