package batch

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"repro/internal/graph"
	"repro/internal/matrix"
)

// Scratch is the matrix-form kernel's working memory for one node count
// n: the n×n product T = Q·S and two support bitmaps of ⌈n/64⌉ words per
// row, one row per row of S and one per row of T. A set bit j in row a
// means cell (a, j) may be non-zero; a clear bit guarantees the cell
// holds +0. T keeps that rule between runs: a run resets only S's flags,
// and writes each row of T only after clearing the row's flagged cells,
// so a cell of T left over from an earlier run, over any graph, is
// cleared through its flag. A Scratch may therefore be reused across
// runs and graphs of the same n, but not by two runs at once.
type Scratch struct {
	t            *matrix.Dense
	sBits, tBits []uint64
	words        int
}

// NewScratch allocates the kernel's working memory for n nodes: 8n²
// bytes for T and n²/4 bytes for the two bitmaps. A run writes only the
// pages of T that its support covers.
func NewScratch(n int) *Scratch { return newScratch(matrix.NewDense(n, n)) }

// newScratch builds the bitmaps around an existing n×n buffer for T,
// which must hold +0 in every cell.
func newScratch(t *matrix.Dense) *Scratch {
	words := (t.Rows + 63) / 64
	return &Scratch{
		t:     t,
		sBits: make([]uint64, t.Rows*words),
		tBits: make([]uint64, t.Rows*words),
		words: words,
	}
}

// dense reports whether a row with count of its n cells flagged takes
// the contiguous whole-row loop instead of visiting its flags: above a
// quarter, since the loop's per-cell cost is a fraction of a flagged
// cell's.
func dense(count, n int) bool { return 4*count > n }

// MatrixFormInto computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ into
// s, using tmp as the scratch buffer for T = Q·S. Both buffers must be
// n×n (n = g.N()) and may hold anything: it clears both, then runs
// MatrixFormScratch over a transient Scratch around tmp. It allocates
// the support bitmaps (n²/4 bytes) on every call; MatrixFormScratch with
// a retained Scratch allocates nothing and clears nothing.
func MatrixFormInto(s, tmp *matrix.Dense, g *graph.DiGraph, c float64, k, workers int) {
	n := g.N()
	if tmp.Rows != n || tmp.Cols != n {
		panic("batch: MatrixFormInto buffer dimension mismatch")
	}
	s.Zero()
	tmp.Zero()
	MatrixFormScratch(s, newScratch(tmp), g, c, k, workers)
}

// MatrixFormScratch computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ
// into s (n×n, n = g.N()) in the working memory sc, which must have been
// made for the same n. workers ≤ 0 selects GOMAXPROCS. Every cell of s
// must arrive +0, as in a fresh matrix: the kernel writes only the cells
// its supports flag, so it never clears s, and a run writes only the
// pages of s and T those supports cover. Building with -tags boundschecks
// checks this contract on entry. The result is exactly symmetric: the
// last step mirrors the upper triangle onto the lower.
//
// Q and Qᵀ are read in place from the graph's sorted lists: row a of Q
// is I(a) weighted 1/|I(a)|, and row x of Qᵀ is O(x), whose entry b
// weighs 1/|I(b)|. Each product writes an output row from one row of
// its input, so both are row-partitioned across workers (the CPU
// analogue of He et al.'s parallel SimRank aggregation [8], which the
// paper's related work contrasts with its pruning approach).
//
// The bitmaps let both products skip the cells of S and T that are
// provably zero, the idea behind Lizorkin et al.'s essential node pairs
// [13]: on a preferential-attachment graph S stays ~1% non-zero, and a
// node without in-links keeps the single cell (1−C)·e_k. Skipping moves
// no bit, because every entry is ≥ +0 (never −0) and adding w·(+0) to
// such a cell leaves it as it was, so every cell adds the same non-zero
// terms in the same order as the whole-row loops, whatever the support,
// the dense fallback or the partition. The mirror, too, visits only
// flagged cells: a pair with neither cell flagged holds +0 in both,
// which is what copying would leave. The result is bit-identical for
// every worker count.
//
//simrank:noalloc
func MatrixFormScratch(s *matrix.Dense, sc *Scratch, g *graph.DiGraph, c float64, k, workers int) {
	n := g.N()
	if s.Rows != n || s.Cols != n || sc.t.Rows != n || sc.t.Cols != n {
		panic("batch: MatrixFormScratch buffer dimension mismatch")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if entryChecks {
		sc.checkEntry(s)
	}
	// S₀ = (1−C)·Iₙ, flagged on the diagonal. T is +0 wherever it is
	// unflagged, and mulQ clears a row's flagged cells before writing it.
	clear(sc.sBits)
	for d := 0; d < n; d++ {
		s.Set(d, d, 1-c)
		sc.sBits[d*sc.words+d>>6] = 1 << (d & 63)
	}
	if workers <= 1 {
		// Serial fast path: calling the row kernels directly (instead of
		// through ParallelRows) keeps the closures from escaping, so a
		// one-worker recompute performs zero heap allocations.
		for iter := 0; iter < k; iter++ {
			sc.mulQ(s, g, 0, n)
			sc.mulQT(s, g, c, 0, n)
		}
	} else {
		for iter := 0; iter < k; iter++ {
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) { sc.mulQ(s, g, lo, hi) })
			//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
			matrix.ParallelRows(n, workers, func(lo, hi int) { sc.mulQT(s, g, c, lo, hi) })
		}
	}
	// Cells (a, b) and (b, a) add the same terms grouped in different
	// orders (the first product sums over a's in-neighbours for one and
	// b's for the other), so they can differ in the last bits. Copying the
	// upper triangle down makes S exactly symmetric, which lets the
	// incremental updates read a row wherever the paper reads a column.
	sc.mirror(s)
}

// mirror copies the upper triangle of s onto the lower one, as
// matrix.Dense.MirrorUpper does, visiting only flagged cells: a flagged
// (a, b) above the diagonal is copied to (b, a), and a flagged (a, b)
// below it is overwritten by (b, a). A pair with neither cell flagged
// holds +0 in both, which is what the full mirror would leave there.
//
//simrank:noalloc
func (sc *Scratch) mirror(s *matrix.Dense) {
	nw, n := sc.words, s.Cols
	for a := 0; a < n; a++ {
		row := s.Row(a)
		for q, word := range sc.sBits[a*nw : (a+1)*nw] {
			for ; word != 0; word &= word - 1 {
				b := q<<6 | bits.TrailingZeros64(word)
				if b > a {
					s.Data[b*n+a] = row[b]
				} else if b < a {
					row[b] = s.Data[b*n+a]
				}
			}
		}
	}
}

// checkEntry panics, naming the cell, unless every cell of s is +0 and
// every cell of T outside its flags is +0: the state a run relies on
// instead of clearing. It is called behind the constant entryChecks
// guard, so release builds pay nothing.
func (sc *Scratch) checkEntry(s *matrix.Dense) {
	for i, v := range s.Data {
		if math.Float64bits(v) != 0 {
			panic(fmt.Sprintf("batch: MatrixFormScratch: cell (%d, %d) of s is %v, not +0", i/s.Cols, i%s.Cols, v))
		}
	}
	n := sc.t.Cols
	for i, v := range sc.t.Data {
		a, j := i/n, i%n
		if sc.tBits[a*sc.words+j>>6]&(1<<(j&63)) == 0 && math.Float64bits(v) != 0 {
			panic(fmt.Sprintf("batch: MatrixFormScratch: unflagged cell (%d, %d) of T is %v, not +0", a, j, v))
		}
	}
}

// mulQ writes rows [lo, hi) of T = Q·S and their flags: row a is
// Σ_{i ∈ I(a)} S[i]/|I(a)|, added in ascending i, and is flagged with
// the union of its terms' flags. A term adds only its flagged cells,
// or its whole row when that row is dense. Row a reads only S and its
// flags, so disjoint ranges are race-free.
//
//simrank:noalloc
func (sc *Scratch) mulQ(s *matrix.Dense, g *graph.DiGraph, lo, hi int) {
	nw, n := sc.words, s.Cols
	for a := lo; a < hi; a++ {
		row := sc.t.Row(a)
		tb := sc.tBits[a*nw : (a+1)*nw]
		clearFlagged(row, tb)
		in := g.In(a)
		w := 1 / float64(len(in))
		for _, i := range in {
			src := s.Row(int(i))
			sb := sc.sBits[int(i)*nw : (int(i)+1)*nw]
			count := 0
			for q, word := range sb {
				tb[q] |= word
				count += bits.OnesCount64(word)
			}
			if dense(count, n) {
				matrix.Axpy(w, src, row)
				continue
			}
			for q, word := range sb {
				for ; word != 0; word &= word - 1 {
					j := q<<6 | bits.TrailingZeros64(word)
					row[j] += w * src[j]
				}
			}
		}
	}
}

// mulQT writes rows [lo, hi) of S = C·(T·Qᵀ) + (1−C)·Iₙ and their flags.
// Row a is Σ_x T[a][x]·(row x of Qᵀ) over ascending x, so cell (a, b)
// adds T[a][x]/|I(b)| for x ∈ I(b) in ascending order. Only the flagged
// x of a sparse T[a] are visited, and each b written is flagged; a dense
// T[a] is scanned whole and its row of S flagged all ones. A zero
// T[a][x] is skipped either way. Row a reads only row a of T, so
// disjoint ranges are race-free.
//
//simrank:noalloc
func (sc *Scratch) mulQT(s *matrix.Dense, g *graph.DiGraph, c float64, lo, hi int) {
	nw, n := sc.words, s.Cols
	for a := lo; a < hi; a++ {
		row := s.Row(a)
		sb := sc.sBits[a*nw : (a+1)*nw]
		clearFlagged(row, sb)
		src := sc.t.Row(a)
		tb := sc.tBits[a*nw : (a+1)*nw]
		if dense(onesCount(tb), n) {
			for x, v := range src {
				if v == 0 {
					continue
				}
				for _, b := range g.Out(x) {
					row[b] += 1 / float64(len(g.In(int(b)))) * v
				}
			}
			matrix.ScaleVec(c, row)
			fillFlags(sb, n)
		} else {
			for q, word := range tb {
				for ; word != 0; word &= word - 1 {
					x := q<<6 | bits.TrailingZeros64(word)
					v := src[x]
					if v == 0 {
						continue
					}
					for _, b := range g.Out(x) {
						row[b] += 1 / float64(len(g.In(int(b)))) * v
						sb[b>>6] |= 1 << (b & 63)
					}
				}
			}
			scaleFlagged(c, row, sb)
		}
		row[a] += 1 - c
		sb[a>>6] |= 1 << (a & 63)
	}
}

// clearFlagged sets row's flagged cells to +0, or the whole row when its
// support is dense, and clears the flags.
//
//simrank:noalloc
func clearFlagged(row []float64, flags []uint64) {
	if dense(onesCount(flags), len(row)) {
		clear(row)
		clear(flags)
		return
	}
	for q, word := range flags {
		for ; word != 0; word &= word - 1 {
			row[q<<6|bits.TrailingZeros64(word)] = 0
		}
		flags[q] = 0
	}
}

// scaleFlagged multiplies row's flagged cells by c, or the whole row
// when its support is dense; an unflagged cell is +0 either way.
//
//simrank:noalloc
func scaleFlagged(c float64, row []float64, flags []uint64) {
	if dense(onesCount(flags), len(row)) {
		matrix.ScaleVec(c, row)
		return
	}
	for q, word := range flags {
		for ; word != 0; word &= word - 1 {
			row[q<<6|bits.TrailingZeros64(word)] *= c
		}
	}
}

// onesCount returns the number of set flags.
//
//simrank:noalloc
func onesCount(flags []uint64) int {
	count := 0
	for _, word := range flags {
		count += bits.OnesCount64(word)
	}
	return count
}

// fillFlags flags all n cells of a row.
//
//simrank:noalloc
func fillFlags(flags []uint64, n int) {
	for q := range flags {
		flags[q] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		flags[len(flags)-1] = 1<<r - 1
	}
}
