package incsvd

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/graph"
	"repro/internal/lin"
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

func TestBatchLosslessMatchesMatrixForm(t *testing.T) {
	// With the lossless SVD, the batch SVD SimRank must match the
	// matrix-form fixed point (both compute Eq. 2 exactly).
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 5; trial++ {
		g := randGraph(rng, 4+rng.Intn(8), 8+rng.Intn(20))
		c := 0.6
		got, err := Batch(g, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := batch.MatrixForm(g, c, 150)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-7 {
			t.Fatalf("trial %d: lossless SVD batch diverges by %g", trial, d)
		}
	}
}

func TestBatchTruncatedIsApproximate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randGraph(rng, 12, 40)
	c := 0.6
	exact := batch.MatrixForm(g, c, 150)
	full, err := New(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Rank() <= 2 {
		t.Skip("graph degenerated to tiny rank")
	}
	lowS, err := Batch(g, c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d := matrix.MaxAbsDiff(lowS, exact); d < 1e-9 {
		t.Fatalf("rank-2 truncation should lose accuracy, diff = %g", d)
	}
}

func TestBadDampingFactor(t *testing.T) {
	g := graph.New(3)
	if _, err := New(g, 0, 0); err == nil {
		t.Fatal("want error for C=0")
	}
	if _, err := New(g, 1.5, 0); err == nil {
		t.Fatal("want error for C>1")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(4)
	s, err := Batch(g, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Identity(4).Scale(0.2)
	if matrix.MaxAbsDiff(s, want) > 1e-12 {
		t.Fatal("empty graph: S must be (1−C)·I")
	}
}

// TestExample3 reproduces Example 3 of the paper: for Q = [0 1; 0 0] and
// an inserted edge giving ΔQ = [0 0; 1 0], Li et al.'s incremental update
// yields Ũ·Σ̃·Ṽᵀ = [0 1; 0 0] ≠ Q̃ = [0 1; 1 0] — the factorization misses
// the new eigenvector and the error ‖Q̃ − ŨΣ̃Ṽᵀ‖₂ = 1.
func TestExample3EigenInformationLoss(t *testing.T) {
	// Graph with 2 nodes and edge (1→0)... in our convention Q[j][i] for
	// edge (i,j): Q = [0 1; 0 0] means [Q]_{0,1} = 1, i.e. I(0) = {1},
	// i.e. edge (1, 0).
	g := graph.FromEdges(2, []graph.Edge{{From: 1, To: 0}})
	e, err := New(g, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank() != 1 {
		t.Fatalf("rank(Q) = %d, want 1", e.Rank())
	}
	// Insert edge (0, 1): ΔQ has [ΔQ]_{1,0} = 1.
	up := graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true}
	if err := e.Update(g, up); err != nil {
		t.Fatal(err)
	}
	// Reconstruct Q̃ from the updated factors.
	rec := matrix.NewDense(2, 2)
	for k := 0; k < e.Rank(); k++ {
		matrix.AddOuter(rec, e.Sig[k], e.U.Col(k), e.V.Col(k))
	}
	g2 := g.Clone()
	g2.Apply(up)
	trueQ := g2.BackwardTransition()
	errNorm := matrix.MaxAbsDiff(rec, trueQ)
	if errNorm < 0.9 {
		t.Fatalf("expected ≈1 factorization error (missed eigenvector), got %g", errNorm)
	}
}

func TestIncrementalInexactOnRankDeficient(t *testing.T) {
	// On a rank-deficient citation-style graph, incremental SVD updates
	// drift from the true similarities even with lossless per-step SVDs —
	// while staying a *valid* similarity matrix. This is the paper's
	// Example 1 behaviour.
	g, ins := graph.Fig1Graph()
	c := 0.8
	e, err := New(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank() >= g.N() {
		t.Skip("Fig1 graph unexpectedly full-rank")
	}
	up := graph.Update{Edge: ins, Insert: true}
	if err := e.Update(g, up); err != nil {
		t.Fatal(err)
	}
	got := e.Similarities()
	g2 := g.Clone()
	g2.Apply(up)
	want := batch.MatrixForm(g2, c, 150)
	if d := matrix.MaxAbsDiff(got, want); d < 1e-6 {
		t.Fatalf("Inc-SVD should be inexact on rank-deficient graphs, diff = %g", d)
	}
}

func TestIncrementalExactOnFullRank(t *testing.T) {
	// Section IV: Li et al.'s method is exact only when Q stays full-rank
	// and the SVD is lossless. A permutation-like graph (every node has
	// exactly one in-neighbor) has orthogonal, full-rank Q.
	g := graph.FromEdges(4, []graph.Edge{
		{From: 0, To: 1}, {From: 1, To: 2}, {From: 2, To: 3}, {From: 3, To: 0},
	})
	c := 0.6
	e, err := New(g, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Rank() != 4 {
		t.Fatalf("cycle Q should be full-rank, got %d", e.Rank())
	}
	// Insert (0, 2): d_2 = 1 → new Q still full rank? Verify via engine
	// against batch; the update keeps rank n here.
	up := graph.Update{Edge: graph.Edge{From: 0, To: 2}, Insert: true}
	if err := e.Update(g, up); err != nil {
		t.Fatal(err)
	}
	g2 := g.Clone()
	g2.Apply(up)
	if nr := lin.NumericRank(g2.BackwardTransition(), 1e-10); nr == 4 && e.Rank() == 4 {
		got := e.Similarities()
		want := batch.MatrixForm(g2, c, 200)
		if d := matrix.MaxAbsDiff(got, want); d > 1e-6 {
			t.Fatalf("full-rank lossless update should be exact, diff = %g", d)
		}
	}
}

func TestAuxRankLossless(t *testing.T) {
	g, ins := graph.Fig1Graph()
	e, err := New(g, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.AuxRankLossless(g, graph.Update{Edge: ins, Insert: true})
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 || r > e.Rank() {
		t.Fatalf("aux rank %d outside (0, %d]", r, e.Rank())
	}
}

func TestAuxFloatsGrowsWithRank(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	g := randGraph(rng, 15, 60)
	e5, _ := New(g, 0.6, 5)
	eFull, _ := New(g, 0.6, 0)
	if eFull.Rank() > 5 && eFull.AuxFloats() <= e5.AuxFloats() {
		t.Fatalf("memory must grow with rank: r5=%d rfull=%d", e5.AuxFloats(), eFull.AuxFloats())
	}
}

func TestUpdateErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	e, _ := New(g, 0.8, 0)
	if err := e.Update(g, graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true}); err == nil {
		t.Fatal("want error for duplicate insert")
	}
	big := graph.New(5)
	if err := e.Update(big, graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true}); err == nil {
		t.Fatal("want error for size mismatch")
	}
}

func TestSimilaritiesSymmetricBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	g := randGraph(rng, 10, 30)
	s, err := Batch(g, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !s.IsSymmetric(1e-9) {
		t.Fatal("SVD batch S must be symmetric")
	}
	for i := 0; i < g.N(); i++ {
		if d := s.At(i, i); d < 0.2-1e-9 || math.IsNaN(d) {
			t.Fatalf("diag[%d] = %v", i, d)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 2, To: 1}, {From: 1, To: 3}})
	e, err := New(g, 0.6, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := e.Clone()
	if err := c.Update(g, graph.Update{Edge: graph.Edge{From: 3, To: 1}, Insert: true}); err != nil {
		t.Fatal(err)
	}
	// The original engine's factors must be untouched.
	s1 := e.Similarities()
	e2, _ := New(g, 0.6, 0)
	s2 := e2.Similarities()
	if matrix.MaxAbsDiff(s1, s2) != 0 {
		t.Fatal("Clone leaked mutations into the original")
	}
}

func TestNewFromSVDMatchesNew(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 2, To: 1}, {From: 1, To: 3}, {From: 3, To: 4},
	})
	full := lin.ComputeSVD(g.BackwardTransition(), 1e-10)
	for _, r := range []int{0, 2} {
		a, err := New(g, 0.6, r)
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewFromSVD(g.N(), 0.6, r, full)
		if err != nil {
			t.Fatal(err)
		}
		if matrix.MaxAbsDiff(a.Similarities(), b.Similarities()) > 1e-12 {
			t.Fatalf("rank %d: NewFromSVD diverges from New", r)
		}
	}
	if _, err := NewFromSVD(3, 0, 0, full); err == nil {
		t.Fatal("want error for bad C")
	}
}

func TestSimilaritiesPerPairMatchesOptimized(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(rng, 4+rng.Intn(10), 25)
		for _, r := range []int{0, 3} {
			e, err := New(g, 0.7, r)
			if err != nil {
				t.Fatal(err)
			}
			if d := matrix.MaxAbsDiff(e.Similarities(), e.SimilaritiesPerPair()); d > 1e-10 {
				t.Fatalf("trial %d rank %d: reconstructions differ by %g", trial, r, d)
			}
		}
	}
}
