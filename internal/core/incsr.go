package core

import (
	"repro/internal/graph"
	"repro/internal/matrix"
)

// IncSR is Algorithm 2 (Inc-SR): Inc-uSR plus the Theorem-4 pruning of
// "unaffected areas". The auxiliary vectors ξ_k, η_k are kept sparse
// (dense-backed workspaces), each rank-one term ξ_k·η_kᵀ is applied
// directly to the output over its support only, and the M matrix is never
// materialized — so work per iteration is proportional to the affected
// frontier A_k×B_k rather than n². The result agrees with IncUSR to
// within 1e-9: the support compaction drops entries below ZeroTol.
// s must be exactly symmetric (see SimStore), as batch.MatrixForm's
// output is.
//
// This non-mutating form pays a Θ(n²) defensive copy and builds a fresh
// Workspace (its scratch) per call; g is not modified. Callers applying a
// stream of updates should hold a Workspace and use its IncSR method,
// which updates s in place and meets the O(K(nd + |AFF|)) bound with
// zero heap allocations once warm — the engine facade does so.
func IncSR(g *graph.DiGraph, s *matrix.Dense, up graph.Update, c float64, k int) (*matrix.Dense, Stats, error) {
	out := s.Clone()
	st, err := NewWorkspace(g).IncSR(out, up, c, k)
	if err != nil {
		return nil, Stats{}, err
	}
	return out, st, nil
}

// IncSR performs one unit update on s (Algorithm 2), reading Q and Qᵀ
// from its graph's in- and out-lists — the zero-allocation steady-state
// path. s is mutated only after all validation, so a failed
// update leaves it untouched; the graph is left unchanged (call
// ApplyUpdate next to apply the update to it).
//
// s is any exactly symmetric SimStore: the dense matrix of the classic
// engine or a packed-symmetric store. The update reads rows i and j
// where Algorithm 2 reads the columns [S]_{·,i} and [S]_{·,j}, every
// read respects the scratch-row aliasing contract, and every write goes
// through AddSym, so S stays symmetric and the store layout is free to
// halve the symmetric storage.
//
//simrank:noalloc
func (ws *Workspace) IncSR(s SimStore, up graph.Update, c float64, k int) (Stats, error) {
	n := ws.n
	if s.N() != n {
		return Stats{}, &ErrBadUpdate{up, "similarity matrix size mismatch"}
	}
	// Theorem 1: ΔQ = uv·e_j·vᵀ, v in ws.vws.
	uv, err := ws.decompose(up)
	if err != nil {
		return Stats{}, err
	}
	ws.ensureIncSR()
	ws.resetDirty()
	i, j := up.Edge.From, up.Edge.To
	dj := len(ws.g.In(j))

	// Line 3: B₀ = F₁ ∪ F₂ ∪ {j} (Eqs. 38–40).
	//   F₁ = out-neighbors of nodes y with [S]_{i,y} ≠ 0 — covers supp(Q·[S]_{·,i});
	//   F₂ = {y : [S]_{j,y} ≠ 0} unless the update makes/made j a source
	//        (d_j = 0 insert, d_j = 1 delete), in which case γ has no
	//        [S]_{·,j} term and F₂ = ∅.
	// S is exactly symmetric, so row i is [S]_{·,i} and row j is
	// [S]_{·,j}: one copy of row i serves F₁ here and w below, and row j
	// serves F₂ and γ.
	b0 := ws.b0 // used as an index set; values unused
	b0.add(j, 1)
	si := ws.si
	copy(si, s.Row(i))
	for y := 0; y < n; y++ {
		if si[y] > ZeroTol || si[y] < -ZeroTol {
			for _, a := range ws.g.Out(y) {
				if !b0.mark[a] {
					b0.add(int(a), 1)
				}
			}
		}
	}
	var sj []float64
	if (up.Insert && dj > 0) || (!up.Insert && dj > 1) {
		// No Row call may come between this one and gammaWs: a packed
		// store serves both from one scratch buffer.
		sj = s.Row(j)
		for y := 0; y < n; y++ {
			if (sj[y] > ZeroTol || sj[y] < -ZeroTol) && !b0.mark[y] {
				b0.add(y, 1)
			}
		}
	}

	// Lines 3–12: memoize [w]_b = [Q]_{b,·}·[S]_{·,i} and γ only on B₀.
	w := ws.w
	for _, b := range b0.supp {
		in := ws.g.In(b)
		if len(in) == 0 {
			continue
		}
		var sum float64
		for _, t := range in {
			sum += si[t]
		}
		w.add(b, sum/float64(len(in)))
	}
	lam := lambda(s, i, j, w.at(j), c)
	gam := ws.gam
	gammaWs(gam, s, sj, w, lam, up, dj, c, b0)

	// Lines 13–19: iterate sparse ξ/η with the implicit
	// Q̃x = Qx + (vᵀx)u, accumulating each rank-one term ξ_k·η_kᵀ into M.
	// M is stored as pooled dense rows: only rows in the affected frontier
	// ∪supp(ξ_k) ever exist, so memory is |rows|·n ≤ n² and the inner loop
	// is the same contiguous multiply-add as Inc-uSR's — just restricted
	// to the frontier (srAccum).
	colSupp := ws.colSupp // index set of ∪supp(η_k)
	xi := ws.xi
	xi.add(j, c)
	eta := gam
	ws.srAccum(xi, eta) // M₀ = C·e_j·γᵀ

	xiNext, etaNext := ws.xiNext, ws.etaNext
	var frontier float64
	peakAux := xi.nnz() + eta.nnz()
	for iter := 0; iter < k; iter++ {
		frontier += float64(xi.nnz()) * float64(eta.nnz())

		vxi := ws.vws.dot(xi)
		xiNext.reset()
		ws.scatterQ(xi, xiNext)
		for _, a := range xiNext.supp {
			xiNext.vals[a] *= c
		}
		xiNext.add(j, c*vxi*uv)
		xiNext.compact(ZeroTol)

		veta := ws.vws.dot(eta)
		etaNext.reset()
		ws.scatterQ(eta, etaNext)
		etaNext.add(j, veta*uv)
		etaNext.compact(ZeroTol)

		ws.srAccum(xiNext, etaNext)
		xi, xiNext = xiNext, xi
		eta, etaNext = etaNext, eta
		if a := xi.nnz() + eta.nnz(); a > peakAux {
			peakAux = a
		}
	}

	// Line 20: S̃ = S + M_K + M_Kᵀ over the affected support only, and
	// count the distinct pairs either M or Mᵀ touches. All reads of the
	// old S happened above, so mutating in place is safe. The M rows are
	// scrubbed as they are read and returned to the pool for the next
	// update.
	//
	// The claim order defines each cell's accumulation order: a pair
	// {a, b} with both ordered M entries non-zero receives them in the
	// order rows a and b were claimed. The scan costs |rowSupp|·|colSupp|,
	// the pruned support the paper's bound charges.
	touched := ws.touched
	for _, a := range ws.rowSupp {
		mrow := ws.mRows[a]
		for _, b := range colSupp.supp {
			v := mrow[b]
			mrow[b] = 0
			if v <= ZeroTol && v >= -ZeroTol {
				continue
			}
			s.AddSym(a, b, v)
			touched.set(a, b)
			touched.set(b, a)
			// The write landed in rows a (entry b) and b (entry a): both
			// become invalidation targets for row-level caches.
			ws.markDirty(a)
			ws.markDirty(b)
		}
		ws.mRows[a] = nil
		ws.rowPool = append(ws.rowPool, mrow)
	}

	iters := k
	if iters == 0 {
		iters = 1
	}
	st := Stats{
		Iterations:    k,
		AffectedPairs: touched.count,
		FrontierArea:  frontier / float64(iters),
		// M's pooled rows, the workspace vectors, the touched-pair bitset
		// (1/64 float per pair each), and the B₀/w/γ memos.
		AuxFloats: len(ws.rowSupp)*n + peakAux + len(ws.touched.words) + w.nnz() + b0.nnz(),
		DirtyRows: ws.dirtyRows,
	}

	// Reset every transient so the next update starts clean; each reset is
	// proportional to the support it clears. xi/eta aliases cover all four
	// iteration buffers regardless of swap parity (gam doubles as η₀).
	ws.rowSupp = ws.rowSupp[:0]
	ws.touched.reset()
	b0.reset()
	w.reset()
	ws.vws.reset()
	colSupp.reset()
	xi.reset()
	eta.reset()
	xiNext.reset()
	etaNext.reset()
	return st, nil
}

// srAccum adds Inc-SR's rank-one term ξ·ηᵀ into the pooled M rows
// (Algorithm 2 lines 13–19) and grows the column support by supp(η).
// Rows are claimed in supp(ξ) order, which fixes rowSupp's order and so
// the write-back's accumulation order.
//
//simrank:noalloc
func (ws *Workspace) srAccum(xi, eta *wsVec) {
	colSupp := ws.colSupp
	for _, b := range eta.supp {
		if !colSupp.mark[b] {
			colSupp.add(b, 1)
		}
	}
	// Frontier ≈ full row: a contiguous multiply-add beats the indexed
	// gather (zero entries contribute nothing).
	denseEta := len(eta.supp) > ws.n/2
	for _, a := range xi.supp {
		ws.claimRow(a)
		va := xi.vals[a]
		row := ws.mRows[a]
		if denseEta {
			for b, vb := range eta.vals {
				row[b] += va * vb
			}
		} else {
			for _, b := range eta.supp {
				row[b] += va * eta.vals[b]
			}
		}
	}
}

// gammaWs fills gam with gammaDense restricted to the B₀ support
// (Algorithm 2 lines 4–12): every entry of γ outside B₀ is structurally
// zero by the Theorem-4 argument, so it is never materialized. sj is row
// j of S, which stands for [S]_{·,j} by symmetry; it is read only in the
// two branches that have an [S]_{·,j} term (an insert with d_j > 0, a
// delete with d_j > 1) and may be nil otherwise.
//
//simrank:noalloc
func gammaWs(gam *wsVec, s SimStore, sj []float64, w *wsVec, lam float64, up graph.Update, dj int, c float64, b0 *wsVec) {
	i, j := up.Edge.From, up.Edge.To
	if up.Insert {
		if dj == 0 {
			for _, b := range b0.supp {
				gam.add(b, w.at(b))
			}
			gam.add(j, 0.5*s.At(i, i))
		} else {
			f := 1 / float64(dj+1)
			for _, b := range b0.supp {
				gam.add(b, f*(w.at(b)-sj[b]/c))
			}
			gam.add(j, f*(lam/(2*float64(dj+1))+1/c-1))
		}
	} else if dj == 1 {
		for _, b := range b0.supp {
			gam.add(b, -w.at(b))
		}
		gam.add(j, 0.5*s.At(i, i))
	} else {
		f := 1 / float64(dj-1)
		for _, b := range b0.supp {
			gam.add(b, f*(sj[b]/c-w.at(b)))
		}
		gam.add(j, f*(lam/(2*float64(dj-1))-1/c+1))
	}
	gam.compact(ZeroTol)
}
