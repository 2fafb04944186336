// Package incsvd implements the comparison baseline of the paper: Li et
// al.'s SVD-based SimRank for static and dynamic graphs ("Fast computation
// of SimRank for static and dynamic information networks", EDBT 2010 — the
// paper's reference [1], called Inc-SVD in the evaluation).
//
// The batch path factorizes the backward transition matrix Q = U·Σ·Vᵀ and
// computes SimRank from the factors. The incremental path (Algorithm 3 of
// [1], Eqs. 4–5 of the paper) updates the factors for a link change:
//
//	C_aux = Σ + Uᵀ·ΔQ·V,   C_aux = U_C·Σ_C·V_Cᵀ (SVD)
//	Ũ = U·U_C,  Σ̃ = Σ_C,  Ṽ = V·V_C
//
// As Section IV of the reproduced paper proves, this update rests on
// U·Uᵀ = V·Vᵀ = Iₙ, which fails whenever rank(Q) < n, so the maintained
// factorization drifts from the true Q̃ — the package intentionally
// reproduces that inexactness (see TestExample3 in the tests).
package incsvd

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lin"
	"repro/internal/matrix"
)

// svdDropTol is the singular-value cutoff used for "lossless" SVDs.
const svdDropTol = 1e-10

// Engine maintains the SVD factors of Q and answers SimRank queries from
// them.
type Engine struct {
	N          int
	C          float64
	TargetRank int // ≤ 0 means lossless (keep every σ above svdDropTol)

	U, V *matrix.Dense // n×r column-orthonormal factors
	Sig  []float64     // r singular values
}

// New factorizes the transition matrix of g. targetRank ≤ 0 keeps the
// lossless rank; otherwise the SVD is truncated to targetRank (the paper's
// low-rank r, a time/accuracy trade-off).
func New(g *graph.DiGraph, c float64, targetRank int) (*Engine, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("incsvd: damping factor %v outside (0,1)", c)
	}
	q := g.BackwardTransition()
	d := lin.ComputeSVD(q, svdDropTol)
	if targetRank > 0 {
		d = d.Truncate(targetRank)
	}
	return &Engine{
		N: g.N(), C: c, TargetRank: targetRank,
		U: d.U, V: d.V, Sig: d.S,
	}, nil
}

// NewFromSVD builds an engine from a precomputed factorization of Q,
// truncating to targetRank when positive. It lets experiment sweeps pay
// the O(n³) factorization once and derive engines per configuration.
func NewFromSVD(n int, c float64, targetRank int, d *lin.SVD) (*Engine, error) {
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("incsvd: damping factor %v outside (0,1)", c)
	}
	if targetRank > 0 {
		d = d.Truncate(targetRank)
	}
	return &Engine{
		N: n, C: c, TargetRank: targetRank,
		U: d.U, V: d.V, Sig: append([]float64(nil), d.S...),
	}, nil
}

// Clone returns an independent copy of the engine, so one precomputed
// factorization can seed several update sequences (the paper treats the
// initial SVD as offline precomputation, not update time).
func (e *Engine) Clone() *Engine {
	return &Engine{
		N: e.N, C: e.C, TargetRank: e.TargetRank,
		U: e.U.Clone(), V: e.V.Clone(),
		Sig: append([]float64(nil), e.Sig...),
	}
}

// Rank returns the current number of retained singular triplets.
func (e *Engine) Rank() int { return len(e.Sig) }

// Update applies one unit link update to the maintained factorization via
// Algorithm 3 of [1]. g must be the graph *before* the update.
func (e *Engine) Update(g *graph.DiGraph, up graph.Update) error {
	if g.N() != e.N {
		return fmt.Errorf("incsvd: graph size %d does not match engine %d", g.N(), e.N)
	}
	ro, err := core.Decompose(g, up)
	if err != nil {
		return err
	}
	r := e.Rank()
	// C_aux = Σ + Uᵀ·ΔQ·V = Σ + (Uᵀu)·(Vᵀv)ᵀ, a diagonal plus a rank-one.
	uu := e.U.MulVecT(ro.U) // Uᵀ·u ∈ R^r
	vv := e.V.MulVecT(ro.V) // Vᵀ·v ∈ R^r
	caux := matrix.NewDense(r, r)
	for i := 0; i < r; i++ {
		caux.Set(i, i, e.Sig[i])
	}
	matrix.AddOuter(caux, 1, uu, vv)
	// SVD of C_aux; the lossless rank of C_aux is what Fig. 2b reports.
	d := lin.ComputeSVD(caux, svdDropTol)
	if e.TargetRank > 0 {
		d = d.Truncate(e.TargetRank)
	}
	// Ũ = U·U_C, Ṽ = V·V_C, Σ̃ = Σ_C (Eq. 4) — the step that silently
	// assumes U·Uᵀ = V·Vᵀ = Iₙ.
	e.U = matrix.Mul(e.U, d.U)
	e.V = matrix.Mul(e.V, d.V)
	e.Sig = d.S
	return nil
}

// AuxRankLossless returns the lossless rank of the auxiliary matrix
// C_aux = Σ + Uᵀ·ΔQ·V for the given update, without mutating the engine
// (the quantity on the y-axis of Fig. 2b).
func (e *Engine) AuxRankLossless(g *graph.DiGraph, up graph.Update) (int, error) {
	ro, err := core.Decompose(g, up)
	if err != nil {
		return 0, err
	}
	r := e.Rank()
	uu := e.U.MulVecT(ro.U)
	vv := e.V.MulVecT(ro.V)
	caux := matrix.NewDense(r, r)
	for i := 0; i < r; i++ {
		caux.Set(i, i, e.Sig[i])
	}
	matrix.AddOuter(caux, 1, uu, vv)
	return lin.NumericRank(caux, svdDropTol), nil
}

// Similarities reconstructs the full SimRank matrix from the current
// factors:
//
//	S = (1−C)·Iₙ + (1−C)·C·U·T·Uᵀ
//
// where the r×r matrix T solves T = Σ² + C·(ΣW)·T·(ΣW)ᵀ with W = Vᵀ·U
// (derived by substituting Q = UΣVᵀ into the series of Eq. 34 and using
// VᵀV = Iᵣ). T is computed by fixed-point iteration, which converges
// geometrically because ‖C·(ΣW)⊗(ΣW)‖ < 1 for a sub-stochastic Q.
func (e *Engine) Similarities() *matrix.Dense {
	n, r, c := e.N, e.Rank(), e.C
	out := matrix.Identity(n).Scale(1 - c)
	if r == 0 {
		return out
	}
	tmat := e.solveT()
	// S = (1−c)·I + (1−c)·c·U·T·Uᵀ.
	utu := matrix.Mul(matrix.Mul(e.U, tmat), e.U.T())
	out.AddMat((1-c)*c, utu)
	return out
}

// SimilaritiesPerPair computes the same scores as Similarities but with
// the per-pair tensor contraction s(a,b) = (1−C)δ_ab + (1−C)·C·u_aᵀ·T·u_b
// evaluated independently for every pair — O(n²r²) total, the closest
// honest analogue of [1]'s per-pair tensor-product reconstruction (their
// Lemma 2 accounting is O(n²r⁴)). Experiments use this method so the
// baseline is not silently given a better algorithm than its paper;
// library users should call Similarities, which reassociates the products
// into O(n²r + nr²).
func (e *Engine) SimilaritiesPerPair() *matrix.Dense {
	n, r, c := e.N, e.Rank(), e.C
	out := matrix.Identity(n).Scale(1 - c)
	if r == 0 {
		return out
	}
	tmat := e.solveT()
	scale := (1 - c) * c
	tb := make([]float64, r)
	for a := 0; a < n; a++ {
		ua := e.U.Row(a)
		for b := a; b < n; b++ {
			ub := e.U.Row(b)
			// tb = T·u_b, recomputed per pair (no cross-pair reuse).
			for i := 0; i < r; i++ {
				tb[i] = matrix.Dot(tmat.Row(i), ub)
			}
			v := scale * matrix.Dot(ua, tb)
			out.Add(a, b, v)
			if a != b {
				out.Add(b, a, v)
			}
		}
	}
	return out
}

// solveT computes the r×r fixed point T = Σ² + C·(ΣW)·T·(ΣW)ᵀ shared by
// both reconstructions.
func (e *Engine) solveT() *matrix.Dense {
	r, c := e.Rank(), e.C
	a := matrix.Mul(e.V.T(), e.U)
	for i := 0; i < r; i++ {
		row := a.Row(i)
		for j := range row {
			row[j] *= e.Sig[i]
		}
	}
	tmat := matrix.NewDense(r, r)
	for i := 0; i < r; i++ {
		tmat.Set(i, i, e.Sig[i]*e.Sig[i])
	}
	at := a.T()
	for iter := 0; iter < 300; iter++ {
		next := matrix.Mul(matrix.Mul(a, tmat), at).Scale(c)
		for i := 0; i < r; i++ {
			next.Add(i, i, e.Sig[i]*e.Sig[i])
		}
		if matrix.MaxAbsDiff(next, tmat) < 1e-13 {
			tmat = next
			break
		}
		tmat = next
	}
	return tmat
}

// AuxFloats estimates the intermediate memory footprint in float64 counts:
// the two n×r factors, the r values, and the r×r working matrices of the
// reconstruction (Fig. 3's "intermediate space").
func (e *Engine) AuxFloats() int {
	r := e.Rank()
	return 2*e.N*r + r + 3*r*r
}

// Batch computes SimRank of g from a fresh (optionally truncated) SVD —
// the static-graph algorithm of [1].
func Batch(g *graph.DiGraph, c float64, targetRank int) (*matrix.Dense, error) {
	e, err := New(g, c, targetRank)
	if err != nil {
		return nil, err
	}
	return e.Similarities(), nil
}
