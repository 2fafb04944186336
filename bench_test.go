// Benchmarks regenerating each table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index), plus ablations of the two
// design decisions Section V-A calls out. Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks use the reduced dataset simulators so the whole suite is
// laptop-sized; cmd/experiments -full runs the full-size sweep.
package simrank

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/incsvd"
	"repro/internal/lin"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/montecarlo"
)

// benchSetup precomputes what a timed section needs: a dataset, its old
// similarities, and one applicable unit update.
type benchSetup struct {
	d   *gen.Dataset
	s   *matrix.Dense
	up  graph.Update
	ups []graph.Update
}

func setupDataset(b *testing.B, idx, delta int) benchSetup {
	b.Helper()
	d := gen.SmallDatasets()[idx]
	s := batch.MatrixForm(d.Base, exp.DampingC, d.K)
	ups := d.Delta(delta)
	return benchSetup{d: d, s: s, up: ups[0], ups: ups}
}

// --- FIG1: the Fig. 1 table --------------------------------------------------

func BenchmarkFig1Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := exp.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP1a (Fig. 2a): per-update time, real datasets -------------------------

func benchIncSR(b *testing.B, idx int) {
	bs := setupDataset(b, idx, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.IncSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIncUSR(b *testing.B, idx int) {
	bs := setupDataset(b, idx, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.IncUSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIncSVD(b *testing.B, idx int) {
	bs := setupDataset(b, idx, 1)
	if !bs.d.SVDFeasible {
		b.Skip("Inc-SVD infeasible on this dataset (the paper's memory crash)")
	}
	// The initial factorization is offline precomputation in [1]; only
	// the factor update and reconstruction are timed.
	pristine, err := incsvd.New(bs.d.Base, exp.DampingC, exp.SVDTargetRank)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng := pristine.Clone()
		if err := eng.Update(bs.d.Base, bs.up); err != nil {
			b.Fatal(err)
		}
		eng.Similarities()
	}
}

func benchBatch(b *testing.B, idx int) {
	bs := setupDataset(b, idx, 1)
	g := bs.d.Base.Clone()
	g.Apply(bs.up)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.PartialSumsShared(g, exp.DampingC, bs.d.K)
	}
}

func BenchmarkExp1IncSRDBLP(b *testing.B)  { benchIncSR(b, 0) }
func BenchmarkExp1IncSRCitH(b *testing.B)  { benchIncSR(b, 1) }
func BenchmarkExp1IncSRYouTu(b *testing.B) { benchIncSR(b, 2) }

func BenchmarkExp1IncUSRDBLP(b *testing.B)  { benchIncUSR(b, 0) }
func BenchmarkExp1IncUSRCitH(b *testing.B)  { benchIncUSR(b, 1) }
func BenchmarkExp1IncUSRYouTu(b *testing.B) { benchIncUSR(b, 2) }

func BenchmarkExp1IncSVDDBLP(b *testing.B) { benchIncSVD(b, 0) }
func BenchmarkExp1IncSVDCitH(b *testing.B) { benchIncSVD(b, 1) }

func BenchmarkExp1BatchDBLP(b *testing.B)  { benchBatch(b, 0) }
func BenchmarkExp1BatchCitH(b *testing.B)  { benchBatch(b, 1) }
func BenchmarkExp1BatchYouTu(b *testing.B) { benchBatch(b, 2) }

// --- EXP1c (Fig. 2c): synthetic insert/delete sweeps -------------------------

func BenchmarkExp1SynInsert(b *testing.B) {
	g := gen.ER(120, 600, 11)
	s := batch.MatrixForm(g, exp.DampingC, 10)
	ups := gen.InsertStream(g, 1, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.IncSR(g, s, ups[0], exp.DampingC, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExp1SynDelete(b *testing.B) {
	g := gen.ER(120, 600, 11)
	s := batch.MatrixForm(g, exp.DampingC, 10)
	ups := gen.DeleteStream(g, 1, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.IncSR(g, s, ups[0], exp.DampingC, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- FIG2b: lossless rank of the auxiliary matrix ---------------------------

func BenchmarkFig2bRank(b *testing.B) {
	bs := setupDataset(b, 0, 5)
	eng, err := incsvd.New(bs.d.Base, exp.DampingC, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.AuxRankLossless(bs.d.Base, bs.up); err != nil {
			b.Fatal(err)
		}
	}
}

// --- EXP2d/EXP2e (Fig. 2d/2e): pruning --------------------------------------

// BenchmarkExp2Pruning times the pruned and unpruned updates back to back
// and reports the affected-area fraction, the quantity behind Fig. 2d/2e.
func BenchmarkExp2Pruning(b *testing.B) {
	bs := setupDataset(b, 1, 1)
	var affected int
	b.Run("Inc-SR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, st, err := core.IncSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K)
			if err != nil {
				b.Fatal(err)
			}
			affected = st.AffectedPairs
		}
		n := bs.d.Base.N()
		b.ReportMetric(metrics.AffectedRatio(affected, n), "affected-%")
	})
	b.Run("Inc-uSR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.IncUSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkExp2Affected(b *testing.B) {
	bs := setupDataset(b, 0, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bs.d.Base.Clone()
		s := bs.s
		var err error
		for _, up := range bs.ups {
			s, _, err = core.IncSR(g, s, up, exp.DampingC, bs.d.K)
			if err != nil {
				b.Fatal(err)
			}
			g.Apply(up)
		}
	}
}

// --- EXP3 (Fig. 3): intermediate memory --------------------------------------

// BenchmarkExp3Memory reports the algorithms' intermediate footprint as a
// custom metric (aux-MB) alongside -benchmem's allocation counters.
func BenchmarkExp3Memory(b *testing.B) {
	bs := setupDataset(b, 0, 1)
	b.Run("Inc-SR", func(b *testing.B) {
		var aux int
		for i := 0; i < b.N; i++ {
			_, st, err := core.IncSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K)
			if err != nil {
				b.Fatal(err)
			}
			aux = st.AuxFloats
		}
		b.ReportMetric(float64(aux)*8/(1<<20), "aux-MB")
	})
	b.Run("Inc-uSR", func(b *testing.B) {
		var aux int
		for i := 0; i < b.N; i++ {
			_, st, err := core.IncUSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K)
			if err != nil {
				b.Fatal(err)
			}
			aux = st.AuxFloats
		}
		b.ReportMetric(float64(aux)*8/(1<<20), "aux-MB")
	})
	for _, r := range []int{5, 15, 25} {
		r := r
		pristine, err := incsvd.New(bs.d.Base, exp.DampingC, r)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("Inc-SVD-r"+itoa(r), func(b *testing.B) {
			var aux int
			for i := 0; i < b.N; i++ {
				eng := pristine.Clone()
				if err := eng.Update(bs.d.Base, bs.up); err != nil {
					b.Fatal(err)
				}
				aux = eng.AuxFloats() + bs.d.Base.N()*bs.d.Base.N()
			}
			b.ReportMetric(float64(aux)*8/(1<<20), "aux-MB")
		})
	}
}

func itoa(v int) string {
	if v == 5 {
		return "5"
	}
	if v == 15 {
		return "15"
	}
	return "25"
}

// --- EXP4 (Fig. 4): NDCG exactness -------------------------------------------

func BenchmarkExp4NDCG(b *testing.B) {
	bs := setupDataset(b, 0, 4)
	gNew := bs.d.Base.Clone()
	for _, up := range bs.ups {
		gNew.Apply(up)
	}
	ideal := batch.MatrixForm(gNew, exp.DampingC, 35)
	got := bs.s
	g := bs.d.Base.Clone()
	var err error
	for _, up := range bs.ups {
		got, _, err = core.IncSR(g, got, up, exp.DampingC, bs.d.K)
		if err != nil {
			b.Fatal(err)
		}
		g.Apply(up)
	}
	b.ResetTimer()
	var ndcg float64
	for i := 0; i < b.N; i++ {
		ndcg = metrics.NDCG(got, ideal, exp.NDCGTopK)
	}
	b.ReportMetric(ndcg, "NDCG30")
}

// --- Ablations (DESIGN.md §4) -------------------------------------------------

// naiveIncUSR realizes Eq. (15) with matrix-matrix multiplications
// (M_{k+1} = M₀ + C·Q̃·M_k·Q̃ᵀ) — the "conventional way" Section V-A
// contrasts the rank-one trick against.
func naiveIncUSR(g *graph.DiGraph, s *matrix.Dense, up graph.Update, c float64, k int) *matrix.Dense {
	ro, err := core.Decompose(g, up)
	if err != nil {
		panic(err)
	}
	n := g.N()
	q := g.BackwardTransition()
	// Materialize Q̃ = Q + u·vᵀ.
	qt := q.Clone()
	matrix.AddOuter(qt, 1, ro.U, ro.V)
	// w and γ exactly as IncUSR computes them (reusing the public pieces
	// would require exporting internals; the dense math is short enough
	// to restate).
	i, j := up.Edge.From, up.Edge.To
	w := q.MulVec(s.Col(i))
	lam := s.At(i, i) + s.At(j, j)/c - 2*w[j] - 1/c + 1
	dj := g.InDegree(j)
	gam := make([]float64, n)
	if up.Insert {
		if dj == 0 {
			copy(gam, w)
			gam[j] += 0.5 * s.At(i, i)
		} else {
			f := 1 / float64(dj+1)
			for bb := 0; bb < n; bb++ {
				gam[bb] = f * (w[bb] - s.At(bb, j)/c)
			}
			gam[j] += f * (lam/(2*float64(dj+1)) + 1/c - 1)
		}
	} else {
		panic("ablation bench only exercises insertion")
	}
	m0 := matrix.Outer(matrix.UnitVec(n, j), gam).Scale(c)
	m := m0.Clone()
	for it := 0; it < k; it++ {
		m = matrix.Mul(matrix.Mul(qt, m), qt.T()).Scale(c)
		m.AddMat(1, m0)
	}
	out := s.Clone()
	out.AddMat(1, m)
	out.AddMat(1, m.T())
	return out
}

// BenchmarkAblationRankOneVsMatMat contrasts the paper's rank-one
// vector iteration with the naive matrix-matrix realization of the same
// series — the core claim of Section V-A.
func BenchmarkAblationRankOneVsMatMat(b *testing.B) {
	bs := setupDataset(b, 0, 1)
	b.Run("rank-one", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := core.IncUSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mat-mat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			naiveIncUSR(bs.d.Base, bs.s, bs.up, exp.DampingC, bs.d.K)
		}
	})
}

// BenchmarkAblationImplicitQtilde contrasts applying Q̃x = Qx + (vᵀx)u
// implicitly (no materialization) against rebuilding the updated
// transition structure in O(m), a clone of the graph with the update
// applied, and multiplying with it.
func BenchmarkAblationImplicitQtilde(b *testing.B) {
	bs := setupDataset(b, 1, 1)
	g := bs.d.Base
	x := make([]float64, g.N())
	for i := range x {
		x[i] = 1 / float64(i+1)
	}
	ro, err := core.Decompose(g, bs.up)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, g.N())
	b.Run("implicit", func(b *testing.B) {
		uj := bs.up.Edge.To
		for i := 0; i < b.N; i++ {
			g.MulQ(y, x)
			y[uj] += matrix.Dot(ro.V, x) * ro.U[uj]
		}
	})
	b.Run("materialized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g2 := g.Clone()
			g2.Apply(bs.up)
			g2.MulQ(y, x)
		}
	})
}

// --- SVD substrate ------------------------------------------------------------

func BenchmarkSVDLossless(b *testing.B) {
	d := gen.SmallDatasets()[0]
	q := d.Base.BackwardTransition()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lin.ComputeSVD(q, 1e-10)
	}
}

// BenchmarkBatchAlgorithms compares the three iterative-form batch
// algorithms (the [3] → [13] → [6] progression of Section II-B).
func BenchmarkBatchAlgorithms(b *testing.B) {
	g := gen.ER(100, 500, 17)
	b.Run("JehWidom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch.JehWidom(g, 0.6, 5)
		}
	})
	b.Run("PartialSums", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch.PartialSums(g, 0.6, 5)
		}
	})
	b.Run("PartialSumsShared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch.PartialSumsShared(g, 0.6, 5)
		}
	})
	b.Run("MatrixForm", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			batch.MatrixForm(g, 0.6, 5)
		}
	})
}

// --- Engine-level end-to-end --------------------------------------------------

func BenchmarkEngineInsert(b *testing.B) {
	d := gen.SmallDatasets()[0]
	eng, err := NewEngine(d.Base.N(), d.Base.Edges(), Options{C: exp.DampingC, K: d.K})
	if err != nil {
		b.Fatal(err)
	}
	up := d.Delta(1)[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Insert(up.Edge.From, up.Edge.To); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Delete(up.Edge.From, up.Edge.To); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineUpdateStream measures sustained update throughput on a
// warm engine: a stream of deletes and re-inserts over a rotating edge
// set, the steady-state shape of a live link feed. The "persistent"
// variant is the engine hot path (workspace reuse; the allocs/op column
// must read 0); "perCall" builds a fresh workspace, with all of its
// scratch, on every update — the seed's per-update shape — kept as the
// baseline the persistent path is measured against.
func BenchmarkEngineUpdateStream(b *testing.B) {
	d := gen.SmallDatasets()[0]
	edges := d.Base.Edges()[:8]
	b.Run("persistent", func(b *testing.B) {
		eng, err := NewEngine(d.Base.N(), d.Base.Edges(), Options{C: exp.DampingC, K: d.K})
		if err != nil {
			b.Fatal(err)
		}
		// One warm-up pass grows every pooled buffer to its steady size.
		for _, e := range edges {
			if _, err := eng.Delete(e.From, e.To); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Insert(e.From, e.To); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			if _, err := eng.Delete(e.From, e.To); err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Insert(e.From, e.To); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("perCall", func(b *testing.B) {
		g := d.Base.Clone()
		s := batch.MatrixForm(g, exp.DampingC, d.K)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := edges[i%len(edges)]
			del := graph.Update{Edge: e, Insert: false}
			if _, err := core.NewWorkspace(g).IncSR(s, del, exp.DampingC, d.K); err != nil {
				b.Fatal(err)
			}
			g.Apply(del)
			ins := graph.Update{Edge: e, Insert: true}
			if _, err := core.NewWorkspace(g).IncSR(s, ins, exp.DampingC, d.K); err != nil {
				b.Fatal(err)
			}
			g.Apply(ins)
		}
	})
	// The update-stream sweep: one engine per (store, n), so the
	// expensive batch build runs once. Each op is a 16-update toggle on
	// PrefAttach(n, 4, 29): "hub" deletes and re-inserts the first 8
	// edges, which join the oldest, highest-degree nodes (wide affected
	// areas); "uniform" inserts and deletes 8 absent edges drawn
	// uniformly (small ones). Rows carry no worker count: updates run
	// on the calling goroutine whatever Options.Workers says, so every
	// width would time the same code.
	sweep := []struct {
		store string
		opts  Options
		ns    []int
	}{
		{"dense", Options{C: exp.DampingC, K: 10}, []int{1024, 4096}},
		{"packed", Options{C: exp.DampingC, K: 10, Backend: BackendPacked}, []int{1024, 4096}},
	}
	for _, sw := range sweep {
		for _, n := range sw.ns {
			b.Run(fmt.Sprintf("%s/n=%d", sw.store, n), func(b *testing.B) {
				g := gen.PrefAttach(n, 4, 29)
				eng, err := NewEngine(g.N(), g.Edges(), sw.opts)
				if err != nil {
					b.Fatal(err)
				}
				defer eng.Close()
				streams := []struct {
					name          string
					edges         []Edge
					first, second func(from, to int) (UpdateStats, error)
				}{
					{"hub", g.Edges()[:8], eng.Delete, eng.Insert},
					{"uniform", absentEdges(g, 8, 31), eng.Insert, eng.Delete},
				}
				for _, st := range streams {
					toggle := func() {
						for _, e := range st.edges {
							if _, err := st.first(e.From, e.To); err != nil {
								b.Fatal(err)
							}
							if _, err := st.second(e.From, e.To); err != nil {
								b.Fatal(err)
							}
						}
					}
					toggle() // warm the workspace scratch for this stream
					b.Run(st.name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							toggle()
						}
					})
				}
			})
		}
	}
}

// absentEdges draws k distinct edges absent from g, uniformly over
// ordered pairs of distinct nodes, from a fixed seed.
func absentEdges(g *graph.DiGraph, k int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[Edge]bool, k)
	out := make([]Edge, 0, k)
	for len(out) < k {
		e := Edge{From: rng.Intn(g.N()), To: rng.Intn(g.N())}
		if e.From == e.To || g.HasEdge(e.From, e.To) || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// BenchmarkEngineRecompute measures the batch safety valve through the
// unified in-place kernel: sequential (zero allocations once warm) and
// GOMAXPROCS-parallel, on the same engine state.
func BenchmarkEngineRecompute(b *testing.B) {
	g := gen.PrefAttach(400, 6, 23)
	for _, workers := range []int{1, 0} {
		name := "workers=1"
		if workers == 0 {
			name = "workers=max"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := NewEngine(g.N(), g.Edges(), Options{C: 0.6, K: 5, Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			eng.Recompute() // warm the store's kernel scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.Recompute()
			}
		})
	}
}

// --- Parameter ablations --------------------------------------------------

// BenchmarkAblationDampingFactor sweeps C: larger damping factors slow
// convergence (error ∝ C^{K+1}) and enlarge the affected areas, so the
// incremental update grows more expensive.
func BenchmarkAblationDampingFactor(b *testing.B) {
	d := gen.SmallDatasets()[0]
	up := d.Delta(1)[0]
	for _, c := range []float64{0.4, 0.6, 0.8} {
		c := c
		name := "C=0.4"
		if c == 0.6 {
			name = "C=0.6"
		} else if c == 0.8 {
			name = "C=0.8"
		}
		b.Run(name, func(b *testing.B) {
			s := batch.MatrixForm(d.Base, c, d.K)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.IncSR(d.Base, s, up, c, d.K); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationIterations sweeps K: per-update cost is linear in K
// while the residual shrinks as C^{K+1} (Section VI-A picks K=15 for
// C^K ≈ 5·10⁻⁴).
func BenchmarkAblationIterations(b *testing.B) {
	d := gen.SmallDatasets()[0]
	s := batch.MatrixForm(d.Base, exp.DampingC, 40)
	up := d.Delta(1)[0]
	for _, k := range []int{5, 15, 30} {
		k := k
		name := map[int]string{5: "K=5", 15: "K=15", 30: "K=30"}[k]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.IncSR(d.Base, s, up, exp.DampingC, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkParallelBatch measures the goroutine-parallel matrix-form
// computation against the sequential one (the He et al. [8] analogue).
func BenchmarkParallelBatch(b *testing.B) {
	g := gen.PrefAttach(400, 6, 23)
	n := g.N()
	s, tmp := matrix.NewDense(n, n), matrix.NewDense(n, n)
	for _, bc := range []struct {
		name    string
		workers int
	}{{"sequential", 1}, {"parallel", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				batch.MatrixFormInto(s, tmp, g, 0.6, 5, bc.workers)
			}
		})
	}
}

// BenchmarkMonteCarloPair measures the probabilistic single-pair estimate
// (the related-work estimator family, Section II-B).
func BenchmarkMonteCarloPair(b *testing.B) {
	g := gen.PrefAttach(400, 6, 29)
	est, err := montecarlo.NewIndex(g, 0.6, 0, 100, 31)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Pair(10, 11, 100)
	}
}

// BenchmarkSnapshotRoundTrip measures engine persistence.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	d := gen.SmallDatasets()[0]
	eng, err := NewEngine(d.Base.N(), d.Base.Edges(), Options{C: exp.DampingC, K: d.K})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := eng.WriteSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadSnapshot(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Read-path query cache (ISSUE 3 tentpole) --------------------------------

// benchReadEngine builds the read-path benchmark fixture: a 2000-node
// preferential-attachment graph behind a ConcurrentEngine (the serving
// shape), with or without the top-k query cache.
func benchReadEngine(b *testing.B, cacheRows int) *ConcurrentEngine {
	b.Helper()
	g := gen.PrefAttach(2000, 3, 47)
	eng, err := NewConcurrentEngine(g.N(), g.Edges(), Options{C: 0.6, K: 5, TopKCacheRows: cacheRows})
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchReadNodes is the rotating query set of the read benchmarks.
const benchReadNodes = 64

// BenchmarkTopKForCached measures warm cached TopKFor on n = 2000: every
// query after the warm-up is served from the per-row cache with zero
// similarity-row scans (the sibling Uncached benchmark is the O(n) scan
// it replaces; the quotient is the read-path speedup).
func BenchmarkTopKForCached(b *testing.B) {
	eng := benchReadEngine(b, 2048)
	for a := 0; a < benchReadNodes; a++ {
		eng.TopKFor(a, 10) // warm the cache
	}
	scansBefore := eng.CacheStats().RowMisses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = eng.TopKFor(i%benchReadNodes, 10)
	}
	b.StopTimer()
	if scans := eng.CacheStats().RowMisses - scansBefore; scans != 0 {
		b.Fatalf("warm cache performed %d row scans, want 0", scans)
	}
}

// BenchmarkTopKForUncached is the same workload straight off the row
// scan — the pre-cache read path.
func BenchmarkTopKForUncached(b *testing.B) {
	eng := benchReadEngine(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPairs = eng.TopKFor(i%benchReadNodes, 10)
	}
}

// BenchmarkTopKForMixedReadHeavy interleaves one incremental write per
// 1024 reads — the read-heavy serving mix the cache targets. Writes
// invalidate only their dirty rows, so the cached variant keeps serving
// the untouched majority from memory.
func BenchmarkTopKForMixedReadHeavy(b *testing.B) {
	for _, cacheRows := range []int{2048, 0} {
		name := "cached"
		if cacheRows == 0 {
			name = "uncached"
		}
		b.Run(name, func(b *testing.B) {
			eng := benchReadEngine(b, cacheRows)
			// Toggle real edges of the base graph: delete then re-insert,
			// so every write applies cleanly at any b.N.
			edges := gen.PrefAttach(2000, 3, 47).Edges()[:4]
			for a := 0; a < benchReadNodes; a++ {
				eng.TopKFor(a, 10)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%1024 == 1023 {
					w := i / 1024
					e := edges[(w/2)%len(edges)]
					var err error
					if w%2 == 0 {
						_, err = eng.Delete(e.From, e.To)
					} else {
						_, err = eng.Insert(e.From, e.To)
					}
					if err != nil {
						b.Fatal(err)
					}
					continue
				}
				sinkPairs = eng.TopKFor(i%benchReadNodes, 10)
			}
		})
	}
}

// sinkPairs defeats dead-code elimination of the benchmarked queries.
var sinkPairs []Pair
