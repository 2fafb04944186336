package batch

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// SingleSource computes one column of the matrix-form SimRank,
// [S]_{·,q} = (1−C)·Σ_k C^k·Q^k·(Qᵀ)^k·e_q, without materializing the n×n
// matrix — the query shape of Fujiwara et al. [9] ("top-k similar nodes
// in O(n) space"). Each series term reuses the previous back-walk vector
// (Qᵀ)^k·e_q and pays k forward multiplications, so the total cost is
// O(K²·m) time and O(n) memory. Both Q·x and Qᵀ·x are the graph's
// products over its in-lists (MulQ, MulQT).
func SingleSource(g *graph.DiGraph, c float64, k, query int) ([]float64, error) {
	n := g.N()
	if query < 0 || query >= n {
		return nil, fmt.Errorf("batch: query node %d out of range [0,%d)", query, n)
	}
	if c <= 0 || c >= 1 {
		return nil, fmt.Errorf("batch: damping factor %v outside (0,1)", c)
	}
	if k < 0 {
		return nil, fmt.Errorf("batch: negative iteration count %d", k)
	}
	// Five O(n) buffers, allocated once, carry the whole series: the
	// back-walk ping-pong pair and the forward ping-pong pair are written
	// in place, so the allocation count is a small constant
	// independent of K — the memory really is O(n), not O(K²) transient
	// vectors left to the collector.
	out := make([]float64, n)
	// k = 0 term: (1−C)·e_q.
	out[query] = 1 - c
	back := make([]float64, n) // (Qᵀ)^t · e_q
	back[query] = 1
	backNext := make([]float64, n)
	fwd := make([]float64, n)
	fwdNext := make([]float64, n)
	ck := 1.0
	for t := 1; t <= k; t++ {
		g.MulQT(backNext, back)
		back, backNext = backNext, back
		ck *= c
		// Forward: fwd = Q^t · back.
		copy(fwd, back)
		cur, nxt := fwd, fwdNext
		for s := 0; s < t; s++ {
			g.MulQ(nxt, cur)
			cur, nxt = nxt, cur
		}
		matrix.Axpy((1-c)*ck, cur, out)
	}
	return out, nil
}
