// Package metrics implements the measurements of the paper's evaluation:
// top-k node-pair extraction, NDCG@k exactness scoring against a batch
// baseline (Exp-4), entrywise error norms, and affected-area ratios
// (Exp-2).
package metrics

import (
	"container/heap"
	"math"

	"repro/internal/matrix"
)

// Pair is a scored node-pair.
type Pair struct {
	A, B  int
	Score float64
}

// TopKPairs extracts the k highest-scoring off-diagonal node-pairs from a
// symmetric similarity matrix, each unordered pair counted once, ties
// broken by (A, B) for determinism. A bounded min-heap keeps the scan at
// O(n²·log k) time and O(k) memory instead of materializing and sorting
// all pairs.
func TopKPairs(s *matrix.Dense, k int) []Pair {
	return TopKPairsUpper(s.Rows, func(a int) []float64 { return s.Row(a)[a:] }, k)
}

// TopKPairsUpper is TopKPairs over any symmetric store that can expose
// its upper triangle row by row: upperRow(a)[d] must be s(a, a+d), with
// d = 0 the (skipped) diagonal. The scan order — a ascending, b = a+1
// ascending — and therefore the deterministic result is identical to the
// dense TopKPairs it generalizes; a packed-triangular store serves each
// upperRow as a zero-copy alias.
func TopKPairsUpper(n int, upperRow func(a int) []float64, k int) []Pair {
	if k <= 0 {
		return nil
	}
	if max := n * (n - 1) / 2; k > max {
		k = max // at most n(n-1)/2 candidates; don't size the heap to a huge k
	}
	h := make(pairHeap, 0, k+1)
	for a := 0; a < n; a++ {
		row := upperRow(a)
		for d := 1; d < len(row); d++ {
			if row[d] == 0 {
				continue
			}
			p := Pair{A: a, B: a + d, Score: row[d]}
			if len(h) < k {
				heap.Push(&h, p)
				continue
			}
			if better(p, h[0]) {
				h[0] = p
				heap.Fix(&h, 0)
			}
		}
	}
	out := make([]Pair, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Pair)
	}
	return out
}

// TopKRow extracts up to k highest-scoring entries of one similarity row
// (node a's row), skipping the diagonal and zero scores — the
// single-source analogue of TopKPairs. The same bounded min-heap keeps
// the scan at O(n·log k) time and O(k) memory, and the result order is
// deterministic: score descending, ties by neighbor id ascending.
func TopKRow(row []float64, a, k int) []Pair {
	if k <= 0 {
		return nil
	}
	if k > len(row) {
		k = len(row) // at most n-1 candidates; don't size the heap to a huge k
	}
	h := make(pairHeap, 0, k+1)
	for b, v := range row {
		if b == a || v == 0 {
			continue
		}
		p := Pair{A: a, B: b, Score: v}
		if len(h) < k {
			heap.Push(&h, p)
			continue
		}
		if better(p, h[0]) {
			h[0] = p
			heap.Fix(&h, 0)
		}
	}
	out := make([]Pair, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&h).(Pair)
	}
	return out
}

// ClonePairs returns an independent copy of a pair slice, so a result
// can be both retained (e.g. by a query cache) and handed to a caller
// free to mutate it. Clones of nil are nil.
func ClonePairs(ps []Pair) []Pair {
	if ps == nil {
		return nil
	}
	out := make([]Pair, len(ps))
	copy(out, ps)
	return out
}

// NDCG computes the normalized discounted cumulative gain at k of a
// ranking produced by `got` against ideal relevances taken from `ideal`
// (both symmetric similarity matrices), the exactness metric of Exp-4:
// the top-k pairs of `got` are looked up in `ideal` for their true gains,
// and the DCG is normalized by the ideal ordering's DCG.
func NDCG(got, ideal *matrix.Dense, k int) float64 {
	gotTop := TopKPairs(got, k)
	idealTop := TopKPairs(ideal, k)
	if len(idealTop) == 0 {
		return 1 // nothing to rank
	}
	dcg := 0.0
	for rank, p := range gotTop {
		rel := ideal.At(p.A, p.B)
		dcg += (math.Pow(2, rel) - 1) / math.Log2(float64(rank)+2)
	}
	idcg := 0.0
	for rank, p := range idealTop {
		idcg += (math.Pow(2, p.Score) - 1) / math.Log2(float64(rank)+2)
	}
	if idcg == 0 {
		return 1
	}
	return dcg / idcg
}

// MeanAbsError returns the mean absolute entrywise difference.
func MeanAbsError(a, b *matrix.Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("metrics: MeanAbsError dimension mismatch")
	}
	if len(a.Data) == 0 {
		return 0
	}
	var sum float64
	for i, v := range a.Data {
		sum += math.Abs(v - b.Data[i])
	}
	return sum / float64(len(a.Data))
}

// AffectedRatio returns affected/total node-pairs as a percentage in
// [0, 100] (Fig. 2e's y-axis).
func AffectedRatio(affectedPairs, n int) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(affectedPairs) / float64(n*n)
}

// PrunedRatio is the complement of AffectedRatio: the percentage of
// node-pairs the pruning skipped (the black bars of Fig. 2d).
func PrunedRatio(affectedPairs, n int) float64 {
	return 100 - AffectedRatio(affectedPairs, n)
}
