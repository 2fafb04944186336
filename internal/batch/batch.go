// Package batch implements the batch (from-scratch) SimRank algorithms the
// paper builds on and compares against:
//
//   - JehWidom: the original O(Kd²n²) iterative fixed point [3];
//   - PartialSums: Lizorkin et al.'s O(Kdn²) partial-sums memoization [13];
//   - PartialSumsShared: Yu et al.'s fine-grained sharing of common partial
//     sums [6] — the algorithm the paper calls "Batch";
//   - MatrixForm: the power iteration on S = C·Q·S·Qᵀ + (1−C)·Iₙ (Eq. 2),
//     the representation the incremental machinery of internal/core is
//     derived from.
//
// JehWidom, PartialSums and PartialSumsShared compute the *iterative form*
// (s(a,a) = 1 pinned); MatrixForm computes the *matrix form*, whose diagonal
// is ≥ 1−C but not 1 (the two forms' consistency is discussed in [1]).
package batch

import (
	"encoding/binary"
	"fmt"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// validate panics on parameter misuse common to all algorithms.
func validate(g *graph.DiGraph, c float64, k int) {
	if g == nil {
		panic("batch: nil graph")
	}
	if c <= 0 || c >= 1 {
		panic(fmt.Sprintf("batch: damping factor C=%v outside (0,1)", c))
	}
	if k < 0 {
		panic(fmt.Sprintf("batch: negative iteration count %d", k))
	}
}

// JehWidom computes K iterations of the original SimRank recurrence
// (Eq. 1): s(a,b) = C/(|I(a)||I(b)|) Σ_{i∈I(a)} Σ_{j∈I(b)} s(i,j) with
// s(a,a)=1, s=0 when either node has no in-neighbors. O(Kd²n²) time.
func JehWidom(g *graph.DiGraph, c float64, k int) *matrix.Dense {
	validate(g, c, k)
	n := g.N()
	s := matrix.Identity(n)
	next := matrix.NewDense(n, n)
	for iter := 0; iter < k; iter++ {
		next.Zero()
		for a := 0; a < n; a++ {
			ia := g.In(a)
			if len(ia) == 0 {
				continue
			}
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				ib := g.In(b)
				if len(ib) == 0 {
					continue
				}
				var sum float64
				for _, i := range ia {
					row := s.Row(int(i))
					for _, j := range ib {
						sum += row[j]
					}
				}
				next.Set(a, b, c*sum/float64(len(ia)*len(ib)))
			}
		}
		for d := 0; d < n; d++ {
			next.Set(d, d, 1)
		}
		s, next = next, s
	}
	return s
}

// PartialSums computes the same iterative-form SimRank as JehWidom but in
// O(Kdn²) time via Lizorkin et al.'s partial-sums memoization: for every
// node a it first materializes Partial_a(j) = Σ_{i∈I(a)} s(i,j) for all j,
// then every pair (a,b) reuses those row sums.
func PartialSums(g *graph.DiGraph, c float64, k int) *matrix.Dense {
	validate(g, c, k)
	n := g.N()
	s := matrix.Identity(n)
	next := matrix.NewDense(n, n)
	partial := matrix.NewDense(n, n) // partial[a][j] = Σ_{i∈I(a)} s(i,j)
	for iter := 0; iter < k; iter++ {
		partial.Zero()
		for a := 0; a < n; a++ {
			row := partial.Row(a)
			for _, i := range g.In(a) {
				matrix.Axpy(1, s.Row(int(i)), row)
			}
		}
		next.Zero()
		for a := 0; a < n; a++ {
			da := len(g.In(a))
			if da == 0 {
				continue
			}
			prow := partial.Row(a)
			nrow := next.Row(a)
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				db := len(g.In(b))
				if db == 0 {
					continue
				}
				var sum float64
				for _, j := range g.In(b) {
					sum += prow[j]
				}
				nrow[b] = c * sum / float64(da*db)
			}
		}
		for d := 0; d < n; d++ {
			next.Set(d, d, 1)
		}
		s, next = next, s
	}
	return s
}

// PartialSumsShared is the "Batch" comparator of the paper's Exp-1: it
// augments PartialSums with Yu et al.-style fine-grained sharing — nodes
// with identical in-neighbor sets share one partial-sum row instead of
// recomputing it (O(Kd'n²) with d' ≤ d). The output is identical to
// JehWidom/PartialSums.
func PartialSumsShared(g *graph.DiGraph, c float64, k int) *matrix.Dense {
	validate(g, c, k)
	n := g.N()
	s := matrix.Identity(n)
	next := matrix.NewDense(n, n)
	// Group nodes by identical in-neighbor set: each group computes its
	// partial-sum row once. The key is the varint encoding of the sorted
	// neighbor ids — deterministic and collision-free (varints are
	// self-delimiting), without fmt's per-node formatting cost.
	groupOf := make([]int, n)
	var groupRep []int // representative node per group
	seen := map[string]int{}
	var keyBuf []byte
	for v := 0; v < n; v++ {
		keyBuf = keyBuf[:0]
		for _, u := range g.In(v) {
			keyBuf = binary.AppendUvarint(keyBuf, uint64(u))
		}
		key := string(keyBuf)
		gid, ok := seen[key]
		if !ok {
			gid = len(groupRep)
			seen[key] = gid
			groupRep = append(groupRep, v)
		}
		groupOf[v] = gid
	}
	partial := matrix.NewDense(len(groupRep), n)
	for iter := 0; iter < k; iter++ {
		partial.Zero()
		for gid, rep := range groupRep {
			row := partial.Row(gid)
			for _, i := range g.In(rep) {
				matrix.Axpy(1, s.Row(int(i)), row)
			}
		}
		next.Zero()
		for a := 0; a < n; a++ {
			da := len(g.In(a))
			if da == 0 {
				continue
			}
			prow := partial.Row(groupOf[a])
			nrow := next.Row(a)
			for b := 0; b < n; b++ {
				if a == b {
					continue
				}
				db := len(g.In(b))
				if db == 0 {
					continue
				}
				var sum float64
				for _, j := range g.In(b) {
					sum += prow[j]
				}
				nrow[b] = c * sum / float64(da*db)
			}
		}
		for d := 0; d < n; d++ {
			next.Set(d, d, 1)
		}
		s, next = next, s
	}
	return s
}

// MatrixForm computes K iterations of the matrix-form SimRank fixed point
// (Eq. 2): S ← C·Q·S·Qᵀ + (1−C)·Iₙ starting from S₀ = (1−C)·Iₙ, i.e. the
// K-th partial sum of the series (Eq. 34)
//
//	S = (1−C)·Σ_k C^k·Q^k·(Qᵀ)^k.
//
// Each iteration costs time in proportion to the flagged cells of S and
// T = Q·S (those that may be non-zero), plus ⌈n/64⌉ bitmap words per row
// and per in-edge. The run adds two passes over S's bitmap (its reset
// and the final mirror) and none over the n² cells: S and T start in
// fresh +0 matrices and the mirror visits only flagged cells, so only
// the pages their supports cover are written. A dense S costs the
// whole-row O(Kdn²). It is the one-worker run of MatrixFormScratch; the
// output is bit-identical to every other worker count.
func MatrixForm(g *graph.DiGraph, c float64, k int) *matrix.Dense {
	validate(g, c, k)
	n := g.N()
	s := matrix.NewDense(n, n)
	MatrixFormScratch(s, NewScratch(n), g, c, k, 1)
	return s
}
