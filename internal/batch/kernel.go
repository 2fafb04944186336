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
// n. It holds S and T = Q·S as per-row support lists, a row-wise sparse
// product in the manner of Gustavson's (ACM TOMS 1978): a sparse row is
// its non-zero columns in ascending order plus their values, kept in the
// arena of its 64-row block, and a row with more than n/4 cells is kept
// whole, as n values. Each worker owns an n-float accumulator and a mark
// bitmap of ⌈n/64⌉ words, in which a row is summed before it is stored;
// both hold +0 and no mark between rows. Each run also fills a table of
// the weights 1/|I(b)|. Arenas, whole-row buffers and accumulators are
// reused across iterations and runs and grow only when a run needs more
// room than any run before it, so a Scratch may be reused across runs
// and graphs of the same n, but not by two runs at once.
type Scratch struct {
	n    int
	s, t lists
	acc  []accumulator
	// inv[b] is 1/|I(b)|, the weight of b in every row of Qᵀ (and of
	// every entry of row b of Q), refreshed by each run.
	inv []float64
}

// lists holds one n×n matrix as per-row support lists.
type lists struct {
	blocks []block
	// whole[a] is row a kept whole in this run, or nil while the row is
	// sparse. Supports only grow within a run (every entry is ≥ +0), so
	// a row that has turned whole stays whole until the run ends.
	whole [][]float64
	// spare[a] is row a's whole-row buffer, kept across runs once a run
	// needed it.
	spare [][]float64
	// home, when set, is the dense matrix whose rows hold S's whole rows
	// instead of spare: MatrixFormScratch's s.
	home *matrix.Dense
}

// block is the arena of one 64-row block, written by one worker at a
// time: the entries of sparse row lo+r are cols[end[r−1]:end[r]] and the
// values at the same offsets (end[−1] reads as 0). A whole row adds no
// entries.
type block struct {
	end  [matrix.RowBlock]int
	cols []int32
	vals []float64
}

// accumulator is one worker's dense row: vals holds +0 outside the row
// being summed, and marks flags every column that row has written.
type accumulator struct {
	vals  []float64
	marks []uint64
}

// NewScratch allocates the kernel's working memory for n nodes: the
// row tables, ⌈n/64⌉ empty arenas, the weights 1/|I(b)| and one
// accumulator. Arenas, whole
// rows and further workers' accumulators are allocated by the first run
// that needs them.
func NewScratch(n int) *Scratch {
	blocks := (n + matrix.RowBlock - 1) / matrix.RowBlock
	newLists := func() lists {
		return lists{blocks: make([]block, blocks), whole: make([][]float64, n), spare: make([][]float64, n)}
	}
	return &Scratch{n: n, s: newLists(), t: newLists(), acc: []accumulator{newAccumulator(n)}, inv: make([]float64, n)}
}

func newAccumulator(n int) accumulator {
	return accumulator{vals: make([]float64, n), marks: make([]uint64, (n+63)/64)}
}

// Bytes reports the memory the Scratch holds: arenas, row tables,
// whole-row buffers, accumulators and weights. Whole rows of S kept in
// MatrixFormScratch's s belong to s and are not counted.
func (sc *Scratch) Bytes() int64 {
	var b int
	for _, m := range [2]*lists{&sc.s, &sc.t} {
		b += 2 * 24 * sc.n // whole and spare
		for i := range m.blocks {
			blk := &m.blocks[i]
			b += 8*len(blk.end) + 4*cap(blk.cols) + 8*cap(blk.vals)
		}
		for _, row := range m.spare {
			b += 8 * cap(row)
		}
	}
	for _, acc := range sc.acc {
		b += 8*cap(acc.vals) + 8*cap(acc.marks)
	}
	return int64(b + 8*cap(sc.inv))
}

// dense reports whether a row with count of its n cells in its support
// is kept whole: above a quarter, since the whole-row loops' per-cell
// cost is a fraction of a listed entry's.
func dense(count, n int) bool { return 4*count > n }

// MatrixFormInto computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ into
// s, which must be n×n (n = g.N()) and may hold anything: it clears s,
// then runs MatrixFormScratch over a fresh Scratch. tmp is only checked
// to be n×n and is otherwise unused (the kernel keeps no n×n T); the
// parameter stays so existing callers compile. MatrixFormScratch with a
// retained Scratch allocates nothing.
func MatrixFormInto(s, tmp *matrix.Dense, g *graph.DiGraph, c float64, k, workers int) {
	n := g.N()
	if tmp.Rows != n || tmp.Cols != n {
		panic("batch: MatrixFormInto buffer dimension mismatch")
	}
	clear(s.Data)
	MatrixFormScratch(s, NewScratch(n), g, c, k, workers)
}

// MatrixFormScratch computes K iterations of S ← C·Q·S·Qᵀ + (1−C)·Iₙ
// into s (n×n, n = g.N()) in the working memory sc, which must have been
// made for the same n. workers ≤ 0 selects GOMAXPROCS. Every cell of s
// must arrive +0, as in a fresh matrix: rows of S that turn whole during
// the run are kept in s, and the last step writes each upper cell
// (a, b), b ≥ a, of the sparse rows into (a, b) and (b, a), so only the
// pages S's support covers are written. Building with -tags boundschecks
// checks this contract on entry. The result is exactly symmetric: the
// lower triangle is the upper one mirrored.
//
// Q and Qᵀ are read in place from the graph's sorted lists: row a of Q
// is I(a) weighted 1/|I(a)|, and row x of Qᵀ is O(x), whose entry b
// weighs 1/|I(b)|. Each product writes an output row from one row of
// its input, so both are row-partitioned across workers in 64-row
// blocks (the CPU analogue of He et al.'s parallel SimRank aggregation
// [8], which the paper's related work contrasts with its pruning
// approach).
//
// Both products visit only the listed cells of S and T, the idea behind
// Lizorkin et al.'s essential node pairs [13]: on a preferential-
// attachment graph S stays ~1% non-zero, and a node without in-links
// keeps the single cell (1−C)·e_k. Skipping moves no bit, because every
// entry is ≥ +0 (never −0) and adding w·(+0) to such a cell leaves it as
// it was, so every cell adds the same non-zero terms in the same order
// as whole-row loops would, whatever the supports, the whole rows or the
// partition. The result is bit-identical for every worker count.
//
//simrank:noalloc
func MatrixFormScratch(s *matrix.Dense, sc *Scratch, g *graph.DiGraph, c float64, k, workers int) {
	n := g.N()
	if s.Rows != n || s.Cols != n || sc.n != n {
		panic("batch: MatrixFormScratch buffer dimension mismatch")
	}
	sc.run(s, g, c, k, workers)
	sc.writeSym(s)
}

// writeSym writes the run's S into s, which holds +0 outside the rows
// of S kept whole there. Cells (a, b) and (b, a) add the same terms
// grouped in different orders (the first product sums over a's
// in-neighbours for one and b's for the other), so they can differ in
// the last bits; writing each upper cell (a, b), b ≥ a, to both makes S
// exactly symmetric, which lets the incremental updates read a row
// wherever the paper reads a column. A whole row already in s holds its
// own sums below the diagonal; they are cleared first, so a cell whose
// mirror no row lists is left +0. The Scratch keeps no alias of s after
// it.
//
//simrank:noalloc
func (sc *Scratch) writeSym(s *matrix.Dense) {
	n := sc.n
	for a := 0; a < n; a++ {
		if sc.s.whole[a] != nil {
			clear(s.Row(a)[:a])
		}
	}
	for a := 0; a < n; a++ {
		if row := sc.s.whole[a]; row != nil {
			for b := a + 1; b < n; b++ {
				s.Data[b*n+a] = row[b]
			}
			continue
		}
		cols, vals := sc.s.list(a)
		for p, b := range cols {
			if int(b) >= a {
				s.Data[a*n+int(b)] = vals[p]
				s.Data[int(b)*n+a] = vals[p]
			}
		}
	}
	clear(sc.s.whole)
	sc.s.home = nil
}

// MatrixFormUpper computes the same S as MatrixFormScratch in the
// working memory sc (made for n = g.N()) without an n×n buffer: for each
// row a it writes cells (a, a), …, (a, n−1) into upper(a), a slice of
// n−a values that must arrive +0 (a sparse row writes only its
// entries). A packed upper triangle is filled this way.
//
//simrank:noalloc
func MatrixFormUpper(sc *Scratch, g *graph.DiGraph, c float64, k, workers int, upper func(a int) []float64) {
	n := g.N()
	if sc.n != n {
		panic("batch: MatrixFormUpper scratch dimension mismatch")
	}
	sc.run(nil, g, c, k, workers)
	for a := 0; a < n; a++ {
		dst := upper(a)[:n-a]
		if entryChecks {
			checkZero(dst, a)
		}
		if row := sc.s.whole[a]; row != nil {
			copy(dst, row[a:])
			continue
		}
		cols, vals := sc.s.list(a)
		for p, b := range cols {
			if int(b) >= a {
				dst[int(b)-a] = vals[p]
			}
		}
	}
}

// run computes K iterations into sc's lists, keeping S's whole rows in
// home's rows when home is set.
//
//simrank:noalloc
func (sc *Scratch) run(home *matrix.Dense, g *graph.DiGraph, c float64, k, workers int) {
	n := sc.n
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, (n+matrix.RowBlock-1)/matrix.RowBlock)
	for len(sc.acc) < workers {
		sc.acc = append(sc.acc, newAccumulator(n)) //simrank:allocok a worker count above every earlier run's
	}
	if entryChecks {
		sc.checkEntry(home)
	}
	// 1/|I(b)| is computed once per run, not once per term: division is
	// correctly rounded, so every product sees the same bits. A node
	// without in-links gets +Inf, which no product reads.
	for b := range sc.inv {
		sc.inv[b] = 1 / float64(len(g.In(b)))
	}
	// S₀ = (1−C)·Iₙ: every row sparse, holding its diagonal cell.
	clear(sc.s.whole)
	clear(sc.t.whole)
	sc.s.home = home
	for d := 0; d < n; d++ {
		blk := sc.s.begin(d)
		blk.cols = append(blk.cols, int32(d))
		blk.vals = append(blk.vals, 1-c)
		blk.end[d%matrix.RowBlock] = len(blk.cols)
	}
	if workers <= 1 {
		// Serial fast path: calling the row kernels directly (instead of
		// through ParallelRows) keeps the closures from escaping, so a
		// one-worker recompute performs zero heap allocations.
		acc := &sc.acc[0]
		for iter := 0; iter < k; iter++ {
			sc.mulQ(g, acc, 0, n)
			sc.mulQT(g, c, acc, 0, n)
		}
		return
	}
	for iter := 0; iter < k; iter++ {
		//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
		matrix.ParallelRows(n, workers, func(w, lo, hi int) { sc.mulQ(g, &sc.acc[w], lo, hi) })
		//simrank:allocok parallel path: O(workers) closures per iteration, the documented trade for the speedup
		matrix.ParallelRows(n, workers, func(w, lo, hi int) { sc.mulQT(g, c, &sc.acc[w], lo, hi) })
	}
}

// mulQ writes rows [lo, hi) of T = Q·S: row a is Σ_{i ∈ I(a)} S[i]/|I(a)|,
// added in ascending i. A row whole in the last iteration, or with a
// whole term, is summed whole in place (its support covers the term's);
// any other is summed in acc and stored by emit. Row a reads only S and
// writes only its own block, so disjoint blocks are race-free.
//
//simrank:noalloc
func (sc *Scratch) mulQ(g *graph.DiGraph, acc *accumulator, lo, hi int) {
	for a := lo; a < hi; a++ {
		blk := sc.t.begin(a)
		in, w := g.In(a), sc.inv[a]
		row := sc.t.whole[a]
		if row == nil {
			for _, i := range in {
				if sc.s.whole[i] != nil {
					row = sc.t.makeWhole(a)
					break
				}
			}
		}
		if row != nil {
			clear(row)
			for _, i := range in {
				if src := sc.s.whole[i]; src != nil {
					matrix.Axpy(w, src, row)
					continue
				}
				cols, vals := sc.s.list(int(i))
				vals = vals[:len(cols)]
				for p, j := range cols {
					row[j] += w * vals[p]
				}
			}
		} else {
			for _, i := range in {
				cols, vals := sc.s.list(int(i))
				vals = vals[:len(cols)]
				for p, j := range cols {
					acc.vals[j] += w * vals[p]
					acc.marks[j>>6] |= 1 << (j & 63)
				}
			}
			sc.t.emit(a, acc)
		}
		blk.end[a%matrix.RowBlock] = len(blk.cols)
	}
}

// mulQT writes rows [lo, hi) of S = C·(T·Qᵀ) + (1−C)·Iₙ. Row a is
// Σ_x T[a][x]·(row x of Qᵀ) over ascending x, so cell (a, b) adds
// T[a][x]/|I(b)| for x ∈ I(b) in ascending order; a zero T[a][x] is
// skipped. The sum is scaled by C, and 1−C is added on the diagonal. A
// row whole in the last iteration is summed in place, any other in acc,
// marking the columns it writes. Row a reads only row a of T and writes
// only its own block, so disjoint blocks are race-free.
//
//simrank:noalloc
func (sc *Scratch) mulQT(g *graph.DiGraph, c float64, acc *accumulator, lo, hi int) {
	for a := lo; a < hi; a++ {
		blk := sc.s.begin(a)
		row := sc.s.whole[a]
		if row != nil {
			clear(row)
		}
		if src := sc.t.whole[a]; src != nil {
			for x, v := range src {
				if v != 0 {
					sc.spread(g.Out(x), v, row, acc)
				}
			}
		} else {
			cols, vals := sc.t.list(a)
			vals = vals[:len(cols)]
			for p, x := range cols {
				if v := vals[p]; v != 0 {
					sc.spread(g.Out(int(x)), v, row, acc)
				}
			}
		}
		if row != nil {
			matrix.ScaleVec(c, row)
			row[a] += 1 - c
		} else {
			for q, word := range acc.marks {
				for ; word != 0; word &= word - 1 {
					acc.vals[q<<6|bits.TrailingZeros64(word)] *= c
				}
			}
			acc.vals[a] += 1 - c
			acc.marks[a>>6] |= 1 << (a & 63)
			sc.s.emit(a, acc)
		}
		blk.end[a%matrix.RowBlock] = len(blk.cols)
	}
}

// spread adds v/|I(b)| to cell b of the row being summed for each b in
// out: of row when it is whole, else of acc, marking b.
//
//simrank:noalloc
func (sc *Scratch) spread(out []int32, v float64, row []float64, acc *accumulator) {
	inv := sc.inv
	if row != nil {
		for _, b := range out {
			row[b] += inv[b] * v
		}
		return
	}
	for _, b := range out {
		acc.vals[b] += inv[b] * v
		acc.marks[b>>6] |= 1 << (b & 63)
	}
}

// begin returns row a's block, emptying its arena when a is the block's
// first row: each product rewrites a block from its first row on.
//
//simrank:noalloc
func (m *lists) begin(a int) *block {
	blk := &m.blocks[a/matrix.RowBlock]
	if a%matrix.RowBlock == 0 {
		blk.cols = blk.cols[:0]
		blk.vals = blk.vals[:0]
	}
	return blk
}

// list returns the entries of sparse row i: ascending columns and their
// values. A whole row lists none.
//
//simrank:noalloc
func (m *lists) list(i int) ([]int32, []float64) {
	blk := &m.blocks[i/matrix.RowBlock]
	r, lo := i%matrix.RowBlock, 0
	if r > 0 {
		lo = blk.end[r-1]
	}
	hi := blk.end[r]
	return blk.cols[lo:hi], blk.vals[lo:hi]
}

// makeWhole keeps row a whole for the rest of the run and returns its
// buffer, whose old contents the caller overwrites: row a of home, or
// the row's spare buffer, allocated by the first run that needs it.
//
//simrank:noalloc
func (m *lists) makeWhole(a int) []float64 {
	var row []float64
	if m.home != nil {
		row = m.home.Row(a)
	} else {
		if m.spare[a] == nil {
			m.spare[a] = make([]float64, len(m.whole)) //simrank:allocok a row's first whole run, reused by every later one
		}
		row = m.spare[a]
	}
	m.whole[a] = row
	return row
}

// emit stores the row summed in acc as row a: whole when more than a
// quarter of its columns are marked, else as its marked entries in
// ascending column order, appended to the block's arena. It leaves acc
// at +0 with no marks.
//
//simrank:noalloc
func (m *lists) emit(a int, acc *accumulator) {
	count := 0
	for _, word := range acc.marks {
		count += bits.OnesCount64(word)
	}
	if dense(count, len(acc.vals)) {
		copy(m.makeWhole(a), acc.vals)
		clear(acc.vals)
		clear(acc.marks)
		return
	}
	blk := &m.blocks[a/matrix.RowBlock]
	for q, word := range acc.marks {
		if word == 0 {
			continue
		}
		for ; word != 0; word &= word - 1 {
			j := q<<6 | bits.TrailingZeros64(word)
			blk.cols = append(blk.cols, int32(j))
			blk.vals = append(blk.vals, acc.vals[j])
			acc.vals[j] = 0
		}
		acc.marks[q] = 0
	}
}

// checkEntry panics, naming the cell, unless every cell of s (when set)
// is +0 and every accumulator holds +0 with no marks: the state a run
// relies on instead of clearing. It is called behind the constant
// entryChecks guard, so release builds pay nothing.
func (sc *Scratch) checkEntry(s *matrix.Dense) {
	if s != nil {
		for i, v := range s.Data {
			if math.Float64bits(v) != 0 {
				panic(fmt.Sprintf("batch: matrix form: cell (%d, %d) of s is %v, not +0", i/s.Cols, i%s.Cols, v))
			}
		}
	}
	for w, acc := range sc.acc {
		for j, v := range acc.vals {
			if math.Float64bits(v) != 0 {
				panic(fmt.Sprintf("batch: matrix form: cell %d of worker %d's accumulator is %v, not +0", j, w, v))
			}
		}
		for q, word := range acc.marks {
			if word != 0 {
				panic(fmt.Sprintf("batch: matrix form: worker %d's accumulator has column %d marked", w, q<<6|bits.TrailingZeros64(word)))
			}
		}
	}
}

// checkZero panics unless row a's upper segment dst arrives +0.
func checkZero(dst []float64, a int) {
	for j, v := range dst {
		if math.Float64bits(v) != 0 {
			panic(fmt.Sprintf("batch: MatrixFormUpper: cell (%d, %d) of the upper triangle is %v, not +0", a, a+j, v))
		}
	}
}
