// Package core implements the paper's primary contribution: exact
// incremental SimRank for unit link updates.
//
//   - IncUSR (Algorithm 1) characterizes the SimRank update ΔS via the
//     rank-one Sylvester equation M = C·Q̃·M·Q̃ᵀ + C·u·wᵀ (Eq. 13) and
//     computes M with only matrix-vector and vector-vector kernels,
//     giving O(Kn²) per update.
//   - IncSR (Algorithm 2) additionally prunes "unaffected areas"
//     (Theorem 4): the auxiliary vectors ξ_k, η_k and the update matrix M
//     are kept sparse, so only node-pairs inside the affected frontier
//     A_k×B_k are ever touched, giving O(K(nd + |AFF|)).
//
// Both algorithms take the graph *before* the update, the old similarity
// matrix S (matrix form, Eq. 2), and the unit update, and return the new
// similarity matrix for the updated graph. They are exact in the paper's
// sense: the result converges to the new fixed point as K grows. IncSR
// agrees with IncUSR to within 1e-9 rather than bit for bit: its
// support compaction drops entries below ZeroTol that IncUSR keeps.
package core

import "sort"

// ZeroTol is the tolerance below which a similarity or update entry is
// treated as structurally zero when building the Theorem-4 affected sets.
// Exact arithmetic would use 0; floats need a little slack.
const ZeroTol = 1e-12

// SparseVec is a sparse n-vector keyed by index. The zero value is not
// ready for use; construct with NewSparseVec.
type SparseVec struct {
	N   int
	Val map[int]float64
}

// NewSparseVec returns an empty sparse vector of dimension n.
func NewSparseVec(n int) *SparseVec {
	return &SparseVec{N: n, Val: make(map[int]float64)}
}

// Set assigns entry i, deleting it when |v| ≤ ZeroTol.
func (s *SparseVec) Set(i int, v float64) {
	if v > ZeroTol || v < -ZeroTol {
		s.Val[i] = v
	} else {
		delete(s.Val, i)
	}
}

// Add accumulates v into entry i.
func (s *SparseVec) Add(i int, v float64) {
	s.Set(i, s.Val[i]+v)
}

// At returns entry i (0 when absent).
func (s *SparseVec) At(i int) float64 { return s.Val[i] }

// NNZ returns the number of stored entries.
func (s *SparseVec) NNZ() int { return len(s.Val) }

// Dot returns the inner product with a dense vector. Accumulation runs
// in sorted index order: float addition is not associative, so folding
// in map order would make the low bits of the result depend on Go's
// randomized iteration — the exact non-determinism the repair==rebuild
// bit-equality guarantees forbid.
func (s *SparseVec) Dot(x []float64) float64 {
	var sum float64
	for _, i := range s.Support() {
		sum += s.Val[i] * x[i]
	}
	return sum
}

// DotSparse returns the inner product with another sparse vector,
// accumulated in sorted index order for the same bit-determinism reason
// as Dot.
func (s *SparseVec) DotSparse(o *SparseVec) float64 {
	a, b := s, o
	if b.NNZ() < a.NNZ() {
		a, b = b, a
	}
	var sum float64
	for _, i := range a.Support() {
		sum += a.Val[i] * b.Val[i]
	}
	return sum
}

// Scale multiplies every entry by a in place.
func (s *SparseVec) Scale(a float64) {
	if a == 0 {
		s.Val = make(map[int]float64)
		return
	}
	for i := range s.Val {
		s.Val[i] *= a
	}
}

// Clone returns an independent copy.
func (s *SparseVec) Clone() *SparseVec {
	c := NewSparseVec(s.N)
	for i, v := range s.Val {
		c.Val[i] = v
	}
	return c
}

// Dense expands to a dense slice.
func (s *SparseVec) Dense() []float64 {
	out := make([]float64, s.N)
	//simrank:orderinvariant distinct keys write distinct slots; no accumulation
	for i, v := range s.Val {
		out[i] = v
	}
	return out
}

// Support returns the sorted index support.
func (s *SparseVec) Support() []int {
	idx := make([]int, 0, len(s.Val))
	//simrank:orderinvariant collects keys only; sorted before return
	for i := range s.Val {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	return idx
}
