package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/batch"
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

// randUpdate draws a random applicable unit update for g (insert an absent
// edge or delete a present one).
func randUpdate(rng *rand.Rand, g *graph.DiGraph) graph.Update {
	n := g.N()
	for {
		if g.M() > 0 && rng.Intn(2) == 0 {
			es := g.Edges()
			return graph.Update{Edge: es[rng.Intn(len(es))], Insert: false}
		}
		e := graph.Edge{From: rng.Intn(n), To: rng.Intn(n)}
		if !g.HasEdge(e.From, e.To) {
			return graph.Update{Edge: e, Insert: true}
		}
	}
}

// --- Theorem 1: ΔQ = u·vᵀ exactly -----------------------------------------

func checkRankOne(t *testing.T, g *graph.DiGraph, up graph.Update) {
	t.Helper()
	ro, err := Decompose(g, up)
	if err != nil {
		t.Fatalf("Decompose(%v): %v", up, err)
	}
	oldQ := g.BackwardTransition()
	g2 := g.Clone()
	if !g2.Apply(up) {
		t.Fatalf("update %v did not apply", up)
	}
	newQ := g2.BackwardTransition()
	want := matrix.NewDense(g.N(), g.N())
	for i := range want.Data {
		want.Data[i] = newQ.Data[i] - oldQ.Data[i]
	}
	got := matrix.Outer(ro.U, ro.V)
	if d := matrix.MaxAbsDiff(got, want); d > 1e-14 {
		t.Fatalf("update %v: ‖u·vᵀ − ΔQ‖_max = %g", up, d)
	}
}

func TestDecomposeInsertFreshTarget(t *testing.T) {
	// d_j = 0 insertion: u = e_j, v = e_i.
	g := graph.FromEdges(3, []graph.Edge{{From: 1, To: 2}})
	up := graph.Update{Edge: graph.Edge{From: 2, To: 0}, Insert: true}
	checkRankOne(t, g, up)
	ro, _ := Decompose(g, up)
	if !slices.Equal(ro.U, []float64{1, 0, 0}) || !slices.Equal(ro.V, []float64{0, 0, 1}) {
		t.Fatalf("d_j=0 decomposition wrong: u=%v v=%v", ro.U, ro.V)
	}
}

func TestDecomposeInsertExistingTarget(t *testing.T) {
	// d_j > 0 insertion: u = e_j/(d_j+1), v = e_i − [Q]ᵀ_{j,·}.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 3}, {From: 1, To: 3}})
	up := graph.Update{Edge: graph.Edge{From: 2, To: 3}, Insert: true}
	checkRankOne(t, g, up)
	ro, _ := Decompose(g, up)
	if math.Abs(ro.U[3]-1.0/3) > 1e-15 {
		t.Fatalf("u_j = %v, want 1/3", ro.U[3])
	}
	if math.Abs(ro.V[2]-1) > 1e-15 || math.Abs(ro.V[0]+0.5) > 1e-15 {
		t.Fatalf("v = %v", ro.V)
	}
}

func TestDecomposeDeleteLastInEdge(t *testing.T) {
	// d_j = 1 deletion: u = e_j, v = −e_i.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	up := graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: false}
	checkRankOne(t, g, up)
	ro, _ := Decompose(g, up)
	if ro.U[1] != 1 || ro.V[0] != -1 {
		t.Fatalf("d_j=1 deletion wrong: u=%v v=%v", ro.U, ro.V)
	}
}

func TestDecomposeDeleteWithSiblings(t *testing.T) {
	// d_j > 1 deletion: u = e_j/(d_j−1), v = [Q]ᵀ_{j,·} − e_i.
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 3}, {From: 1, To: 3}, {From: 2, To: 3}})
	up := graph.Update{Edge: graph.Edge{From: 0, To: 3}, Insert: false}
	checkRankOne(t, g, up)
}

func TestDecomposeSelfLoop(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 1}})
	checkRankOne(t, g, graph.Update{Edge: graph.Edge{From: 2, To: 1}, Insert: true})
	checkRankOne(t, g, graph.Update{Edge: graph.Edge{From: 1, To: 1}, Insert: false})
}

func TestDecomposeErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	cases := []graph.Update{
		{Edge: graph.Edge{From: 0, To: 1}, Insert: true},   // already present
		{Edge: graph.Edge{From: 1, To: 2}, Insert: false},  // absent
		{Edge: graph.Edge{From: 0, To: 99}, Insert: true},  // out of range
		{Edge: graph.Edge{From: -1, To: 0}, Insert: false}, // out of range
	}
	for _, up := range cases {
		if _, err := Decompose(g, up); err == nil {
			t.Fatalf("update %v: want error", up)
		}
	}
}

func TestQuickTheorem1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randGraph(rng, n, 2*n)
		up := randUpdate(rng, g)
		ro, err := Decompose(g, up)
		if err != nil {
			return false
		}
		oldQ := g.BackwardTransition()
		g2 := g.Clone()
		g2.Apply(up)
		newQ := g2.BackwardTransition()
		diff := matrix.Outer(ro.U, ro.V)
		for i := range diff.Data {
			diff.Data[i] -= newQ.Data[i] - oldQ.Data[i]
		}
		return diff.MaxAbs() < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// --- Inc-uSR exactness ------------------------------------------------------

// exactTol: with K=120 iterations and C ≤ 0.8, truncation error is far
// below float noise, so incremental and batch must agree almost exactly.
const exactK = 120
const exactTol = 1e-9

func checkIncremental(t *testing.T, g *graph.DiGraph, up graph.Update, c float64) {
	t.Helper()
	sOld := batch.MatrixForm(g, c, exactK)
	gotU, stU, err := IncUSR(g, sOld, up, c, exactK)
	if err != nil {
		t.Fatalf("IncUSR(%v): %v", up, err)
	}
	gotS, stS, err := IncSR(g, sOld, up, c, exactK)
	if err != nil {
		t.Fatalf("IncSR(%v): %v", up, err)
	}
	g2 := g.Clone()
	g2.Apply(up)
	want := batch.MatrixForm(g2, c, exactK)
	if d := matrix.MaxAbsDiff(gotU, want); d > exactTol {
		t.Fatalf("update %v: IncUSR vs batch diff %g", up, d)
	}
	if d := matrix.MaxAbsDiff(gotS, gotU); d > exactTol {
		t.Fatalf("update %v: IncSR vs IncUSR diff %g (pruning must be lossless)", up, d)
	}
	if stU.AffectedPairs < 0 || stS.AffectedPairs < 0 {
		t.Fatal("negative affected pairs")
	}
}

func TestIncUSRInsertCases(t *testing.T) {
	// Covers d_j = 0 and d_j > 0 insertions.
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}, {From: 2, To: 4},
	})
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 4, To: 3}, Insert: true}, 0.8) // d_3 = 0
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 4, To: 2}, Insert: true}, 0.8) // d_2 = 2
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 1, To: 4}, Insert: true}, 0.6) // d_4 = 1
}

func TestIncUSRDeleteCases(t *testing.T) {
	g := graph.FromEdges(5, []graph.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 3, To: 2}, {From: 2, To: 4},
	})
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 2, To: 4}, Insert: false}, 0.8) // d_4 = 1
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 0, To: 2}, Insert: false}, 0.8) // d_2 = 2
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 3, To: 2}, Insert: false}, 0.6)
}

func TestIncUSRFig1Insertion(t *testing.T) {
	g, e := graph.Fig1Graph()
	checkIncremental(t, g, graph.Update{Edge: e, Insert: true}, 0.8)
}

func TestIncUSRSelfLoop(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 1, To: 2}})
	checkIncremental(t, g, graph.Update{Edge: graph.Edge{From: 2, To: 2}, Insert: true}, 0.7)
}

func TestIncUSRErrors(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	s := batch.MatrixForm(g, 0.8, 10)
	if _, _, err := IncUSR(g, s, graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true}, 0.8, 10); err == nil {
		t.Fatal("want error for duplicate insert")
	}
	bad := matrix.NewDense(2, 2)
	if _, _, err := IncUSR(g, bad, graph.Update{Edge: graph.Edge{From: 1, To: 2}, Insert: true}, 0.8, 10); err == nil {
		t.Fatal("want error for size mismatch")
	}
	if _, _, err := IncSR(g, bad, graph.Update{Edge: graph.Edge{From: 1, To: 2}, Insert: true}, 0.8, 10); err == nil {
		t.Fatal("want error for size mismatch (IncSR)")
	}
}

func TestIncUSRChainOfUpdates(t *testing.T) {
	// A batch of unit updates folded one at a time must track the batch
	// recomputation (Section V: batch update = sequence of unit updates).
	rng := rand.New(rand.NewSource(77))
	g := randGraph(rng, 10, 20)
	c := 0.6
	s := batch.MatrixForm(g, c, exactK)
	for step := 0; step < 8; step++ {
		up := randUpdate(rng, g)
		var err error
		s, _, err = IncSR(g, s, up, c, exactK)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		g.Apply(up)
		want := batch.MatrixForm(g, c, exactK)
		if d := matrix.MaxAbsDiff(s, want); d > 1e-8 {
			t.Fatalf("step %d (%v): drift %g", step, up, d)
		}
	}
}

func TestIncSRPrunesUnaffectedPairs(t *testing.T) {
	// On Fig. 1, the (m,l) cluster is unreachable from the inserted edge,
	// so Inc-SR must not touch it: affected pairs must be well below n².
	g, e := graph.Fig1Graph()
	c := 0.8
	s := batch.MatrixForm(g, c, 40)
	out, st, err := IncSR(g, s, graph.Update{Edge: e, Insert: true}, c, 40)
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	if st.AffectedPairs >= n*n {
		t.Fatalf("affected pairs %d not pruned (n² = %d)", st.AffectedPairs, n*n)
	}
	// Gray-row-style pairs far from the inserted edge keep their old
	// scores (the reconstruction's analogue of the paper's gray rows).
	for _, p := range [][2]int{
		{graph.FigM, graph.FigL}, {graph.FigK, graph.FigG},
		{graph.FigK, graph.FigH}, {graph.FigI, graph.FigF},
	} {
		if math.Abs(out.At(p[0], p[1])-s.At(p[0], p[1])) > 1e-12 {
			t.Fatalf("pair (%s,%s) should be unaffected", graph.Fig1NodeName(p[0]), graph.Fig1NodeName(p[1]))
		}
	}
	// Pairs in the affected area must actually change, including a
	// zero→non-zero flip like the paper's (a,d) and (j,b) rows.
	for _, p := range [][2]int{{graph.FigA, graph.FigB}, {graph.FigB, graph.FigJ}, {graph.FigA, graph.FigJ}} {
		if math.Abs(out.At(p[0], p[1])-s.At(p[0], p[1])) < 1e-9 {
			t.Fatalf("pair (%s,%s) should change", graph.Fig1NodeName(p[0]), graph.Fig1NodeName(p[1]))
		}
	}
	if s.At(graph.FigA, graph.FigJ) > 1e-9 {
		t.Fatal("pair (a,j) should start at zero")
	}
}

func TestIncSRStatsPopulated(t *testing.T) {
	g, e := graph.Fig1Graph()
	s := batch.MatrixForm(g, 0.8, 20)
	_, st, err := IncSR(g, s, graph.Update{Edge: e, Insert: true}, 0.8, 20)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations != 20 || st.FrontierArea <= 0 || st.AuxFloats <= 0 {
		t.Fatalf("stats not populated: %+v", st)
	}
}

func TestIncUSRZeroIterations(t *testing.T) {
	// K=0 still applies the M₀ = C·e_j·γᵀ term.
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	s := batch.MatrixForm(g, 0.8, exactK)
	got, _, err := IncUSR(g, s, graph.Update{Edge: graph.Edge{From: 0, To: 2}, Insert: true}, 0.8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rows != 3 {
		t.Fatal("bad output")
	}
}

// --- property tests ---------------------------------------------------------

// Property: Inc-uSR equals batch recomputation on random graphs and random
// unit updates (the headline exactness claim).
func TestQuickIncUSRMatchesBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randGraph(rng, n, 1+rng.Intn(3*n))
		c := []float64{0.6, 0.8}[rng.Intn(2)]
		up := randUpdate(rng, g)
		sOld := batch.MatrixForm(g, c, exactK)
		got, _, err := IncUSR(g, sOld, up, c, exactK)
		if err != nil {
			return false
		}
		g2 := g.Clone()
		g2.Apply(up)
		want := batch.MatrixForm(g2, c, exactK)
		return matrix.MaxAbsDiff(got, want) < exactTol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Inc-SR agrees with Inc-uSR within 1e-9 on random instances.
func TestQuickIncSRMatchesIncUSR(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		g := randGraph(rng, n, 1+rng.Intn(3*n))
		c := 0.4 + 0.4*rng.Float64()
		up := randUpdate(rng, g)
		sOld := batch.MatrixForm(g, c, 60)
		a, _, err1 := IncUSR(g, sOld, up, c, 60)
		b, _, err2 := IncSR(g, sOld, up, c, 60)
		if err1 != nil || err2 != nil {
			return false
		}
		return matrix.MaxAbsDiff(a, b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: updated similarities stay symmetric with diagonal in [1−C, 1].
func TestQuickIncrementalInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		g := randGraph(rng, n, 2*n)
		c := 0.8
		up := randUpdate(rng, g)
		sOld := batch.MatrixForm(g, c, 80)
		got, _, err := IncSR(g, sOld, up, c, 80)
		if err != nil {
			return false
		}
		// Tolerance accounts for the K=80 truncation error of the old S
		// (≈ C^81 ≈ 10⁻⁸) flowing through the update.
		if !got.IsSymmetric(1e-6) {
			return false
		}
		for i := 0; i < n; i++ {
			d := got.At(i, i)
			if d < 1-c-1e-6 || d > 1+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInPlaceErrorLeavesInputUntouched(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{From: 0, To: 1}})
	s := batch.MatrixForm(g, 0.6, 10)
	snapshot := s.Clone()
	bad := graph.Update{Edge: graph.Edge{From: 0, To: 1}, Insert: true} // duplicate
	if _, err := NewWorkspace(g).IncSR(s, bad, 0.6, 10); err == nil {
		t.Fatal("want error")
	}
	if _, err := NewWorkspace(g).IncUSR(s, bad, 0.6, 10); err == nil {
		t.Fatal("want error")
	}
	if matrix.MaxAbsDiff(s, snapshot) != 0 {
		t.Fatal("failed in-place update mutated S")
	}
}

func TestIncSRPureDoesNotMutateInput(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{From: 0, To: 1}, {From: 0, To: 2}})
	s := batch.MatrixForm(g, 0.8, 20)
	snapshot := s.Clone()
	if _, _, err := IncSR(g, s, graph.Update{Edge: graph.Edge{From: 3, To: 1}, Insert: true}, 0.8, 20); err != nil {
		t.Fatal(err)
	}
	if _, _, err := IncUSR(g, s, graph.Update{Edge: graph.Edge{From: 3, To: 1}, Insert: true}, 0.8, 20); err != nil {
		t.Fatal(err)
	}
	if matrix.MaxAbsDiff(s, snapshot) != 0 {
		t.Fatal("pure variant mutated its input")
	}
}
