package core

import (
	"repro/internal/graph"
	"repro/internal/matrix"
)

// Stats reports the work done by one incremental update.
type Stats struct {
	// Iterations actually performed (K).
	Iterations int
	// AffectedPairs is the number of node-pairs whose similarity the
	// algorithm touched: nnz(M_K + M_Kᵀ). For Inc-uSR this is counted
	// post hoc over the dense M; for Inc-SR it is the size of the pruned
	// support — the paper's |AFF|.
	AffectedPairs int
	// FrontierArea is Σ_k |A_k|·|B_k| / (K+1): the average per-iteration
	// affected area (Fig. 2e's numerator). Zero for Inc-uSR, which has no
	// frontier (every pair is visited).
	FrontierArea float64
	// AuxFloats estimates the intermediate memory used, in float64 counts
	// (Fig. 3's "intermediate space": auxiliary vectors plus M, excluding
	// the n² similarity output itself).
	AuxFloats int
	// DirtyRows lists the rows of S the update wrote, unsorted — a
	// superset of the rows whose bits actually changed (an accumulation
	// can round to a no-op) and exactly the invalidation set a per-row
	// query cache needs.
	// This is the data already tracked for AffectedPairs, exposed
	// instead of discarded; Inc-SR reports the pruned support, Inc-uSR
	// every row with a non-zero delta.
	//
	// Lifetime contract: the slice aliases workspace scratch and is
	// valid only from the update's return until the next update through
	// the same Workspace — the very next IncSR/IncUSR call rewrites the
	// backing array in place. Consumers must either finish with it
	// before then (the engine threads it into its cache and store
	// bookkeeping synchronously, inside the same mutation) or detach a
	// copy at a well-defined point (the MVCC facade snapshots it once,
	// at view-publish time). Never store the slice itself.
	DirtyRows []int
}

// lambda computes the scalar λ of Eq. (29):
// λ = [S]_{i,i} + (1/C)[S]_{j,j} − 2·[w]_j − 1/C + 1, where w = Q·[S]_{·,i}.
//
//simrank:noalloc
func lambda(s SimStore, i, j int, wj, c float64) float64 {
	return s.At(i, i) + s.At(j, j)/c - 2*wj - 1/c + 1
}

// gammaDense fills gam with the auxiliary vector γ of Theorem 3
// (Eqs. 27–28) given the memoized w = Q·[S]_{·,i}, the scalar λ, the old
// S, and the update. dj is the in-degree of j in the old graph. S is
// exactly symmetric, so row j of S serves as [S]_{·,j}.
//
//simrank:noalloc
func gammaDense(gam []float64, s SimStore, w []float64, lam float64, up graph.Update, dj int, c float64) {
	n := s.N()
	i, j := up.Edge.From, up.Edge.To
	if up.Insert {
		if dj == 0 {
			// γ = w + ½[S]_{i,i}·e_j
			copy(gam, w)
			gam[j] += 0.5 * s.At(i, i)
			return
		}
		// γ = 1/(d_j+1)·( w − (1/C)[S]_{·,j} + (λ/(2(d_j+1)) + 1/C − 1)·e_j )
		f := 1 / float64(dj+1)
		sj := s.Row(j)
		for b := 0; b < n; b++ {
			gam[b] = f * (w[b] - sj[b]/c)
		}
		gam[j] += f * (lam/(2*float64(dj+1)) + 1/c - 1)
		return
	}
	if dj == 1 {
		// γ = ½[S]_{i,i}·e_j − w
		for b := 0; b < n; b++ {
			gam[b] = -w[b]
		}
		gam[j] += 0.5 * s.At(i, i)
		return
	}
	// γ = 1/(d_j−1)·( (1/C)[S]_{·,j} − w + (λ/(2(d_j−1)) − 1/C + 1)·e_j )
	f := 1 / float64(dj-1)
	sj := s.Row(j)
	for b := 0; b < n; b++ {
		gam[b] = f * (sj[b]/c - w[b])
	}
	gam[j] += f * (lam/(2*float64(dj-1)) - 1/c + 1)
}

// IncUSR is Algorithm 1 (Inc-uSR): given the old graph g, its matrix-form
// similarities s, a unit update, the damping factor c ∈ (0,1) and the
// iteration count k, it returns the new similarity matrix for g ⊕ update
// without any matrix-matrix multiplication.
//
// g and s are not modified. Like IncSR it copies s and builds a fresh
// Workspace per call; stream callers should hold a Workspace and use its
// IncUSR method, which updates s in place and reuses the dense scratch
// across updates.
func IncUSR(g *graph.DiGraph, s *matrix.Dense, up graph.Update, c float64, k int) (*matrix.Dense, Stats, error) {
	out := s.Clone()
	st, err := NewWorkspace(g).IncUSR(out, up, c, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// IncUSR performs one unit update on s (Algorithm 1), reading Q from the
// workspace graph's in-lists, with its persistent dense scratch (M plus
// the ξ/η/w/γ vectors, allocated on first use) — zero heap allocations
// once warm. s is mutated only after all validation; the graph is left
// unchanged (call ApplyUpdate next to apply the update to it). Like
// IncSR it accepts
// any exactly symmetric SimStore and reads rows where Algorithm 1 reads
// columns: all writes flow through Add/AddSym so symmetric layouts
// apply each unordered pair's delta to one backing cell.
//
//simrank:noalloc
func (ws *Workspace) IncUSR(s SimStore, up graph.Update, c float64, k int) (Stats, error) {
	n := ws.n
	if s.N() != n {
		return Stats{}, &ErrBadUpdate{up, "similarity matrix size mismatch"}
	}
	uv, err := ws.decompose(up)
	if err != nil {
		return Stats{}, err
	}
	ws.ensureDense()
	ws.resetDirty()
	i, j := up.Edge.From, up.Edge.To
	dj := len(ws.g.In(j))

	// Lines 3–4: w := Q·[S]_{·,i};  λ := [S]_{i,i} + [S]_{j,j}/C − 2[w]_j − 1/C + 1.
	// S is exactly symmetric, so [S]_{·,i} is a copy of row i.
	si := ws.si
	copy(si, s.Row(i))
	w := ws.wD
	ws.g.MulQ(w, si)
	lam := lambda(s, i, j, w[j], c)

	// Lines 5–12: γ per Theorem 3.
	gam := ws.gamD
	gammaDense(gam, s, w, lam, up, dj, c)

	// Lines 13–17: iterate ξ, η; accumulate M = Σ ξ_k·η_kᵀ.
	// Q̃·x is applied implicitly as Q·x + (vᵀx)·u (Theorem 1).
	xi := ws.xiD
	for v := range xi {
		xi[v] = 0
	}
	xi[j] = c
	eta := ws.etaD
	copy(eta, gam)
	m := ws.mDense
	m.Zero()
	// M₀ = C·e_j·γᵀ: the unit-vector outer product touches only row j.
	matrix.Axpy(c, gam, m.Row(j))
	uj := j // u = uv·e_j
	xiNext, etaNext := ws.xiNextD, ws.etaNextD
	for iter := 0; iter < k; iter++ {
		vxi := ws.vws.dotDense(xi)
		ws.g.MulQ(xiNext, xi)
		matrix.ScaleVec(c, xiNext)
		xiNext[uj] += c * vxi * uv

		veta := ws.vws.dotDense(eta)
		ws.g.MulQ(etaNext, eta)
		etaNext[uj] += veta * uv

		matrix.AddOuter(m, 1, xiNext, etaNext)
		xi, xiNext = xiNext, xi
		eta, etaNext = etaNext, eta
	}

	// Line 18: S̃ := S + M_K + M_Kᵀ. All reads of the old S happened in
	// the preprocessing above, so mutating in place is safe.
	affected := ws.usrWriteback(s)
	ws.vws.reset()
	st := Stats{
		Iterations:    k,
		AffectedPairs: affected,
		AuxFloats:     n*n + 4*n, // M plus ξ, η, w, γ
		DirtyRows:     ws.dirtyRows,
	}
	return st, nil
}

// usrWriteback is Inc-uSR's S̃ = S + M + Mᵀ (Algorithm 1 line 18), one
// serial pass over the diagonal and upper triangle. Each unordered pair
// is visited once: its delta d = [M]_{a,b} + [M]_{b,a} is the same for
// both mirror entries (float addition commutes), so AddSym lands the
// identical bits a per-ordered-entry loop would write, while a packed
// store pays one cell instead of two. The diagonal keeps its single Add
// of d = 2·[M]_{a,a}. Any exactly non-zero delta dirties its rows —
// deltas inside (0, ZeroTol] are still added to S, so a tolerance-based
// test here would let a cache serve stale bits — while zero deltas are
// skipped outright: adding 0.0 cannot change a stored value. Returns the
// affected-pair count.
//
//simrank:noalloc
func (ws *Workspace) usrWriteback(s SimStore) int {
	m, n := ws.mDense, ws.n
	affected := 0
	for a := 0; a < n; a++ {
		mrow := m.Row(a)
		d := mrow[a] + m.At(a, a)
		if d > ZeroTol || d < -ZeroTol {
			affected++
		}
		if d != 0 {
			ws.markDirty(a)
			s.Add(a, a, d)
		}
		for b := a + 1; b < n; b++ {
			d := mrow[b] + m.At(b, a)
			if d > ZeroTol || d < -ZeroTol {
				affected += 2 // both ordered entries
			}
			if d != 0 {
				ws.markDirty(a)
				ws.markDirty(b)
				s.AddSym(a, b, d)
			}
		}
	}
	return affected
}
