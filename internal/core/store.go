package core

// SimStore is the similarity-store surface the incremental update
// algorithms write through. It is the minimal subset of
// internal/simstore.Store that Inc-SR/Inc-uSR need, declared here (and
// satisfied structurally) so core does not depend on the store package:
// *matrix.Dense implements it directly, as do the dense and packed
// backends of internal/simstore.
//
// Contract notes:
//
//   - Row may return a view aliasing store-internal scratch that is only
//     valid until the next Row/ColInto/mutation call — the algorithms
//     below respect that (each row's reads complete before the next row
//     is fetched), which is what lets a packed-triangular store serve
//     rows from one reusable buffer with zero allocations.
//   - AddSym(i, j, v) applies v·(e_i·e_jᵀ + e_j·e_iᵀ): both mirror
//     entries accumulate v (the diagonal twice). It is the only mutation
//     the update write-backs perform, so a symmetric store applies it to
//     one backing cell.
//   - ColInto(dst, j) copies [S]_{·,j}; symmetric stores may serve it
//     from row j's storage.
type SimStore interface {
	N() int
	At(i, j int) float64
	Add(i, j int, v float64)
	AddSym(i, j int, v float64)
	Row(i int) []float64
	ColInto(dst []float64, j int)
}

// ConcurrentWriteStore is the optional concurrent write-back mode of a
// SimStore, used by Inc-uSR's row-parallel S write-back (parallel.go,
// usrWriteback), where several goroutines mutate disjoint cells
// simultaneously. Inc-SR's pruned write-back is serial and never uses
// it. A store that does not implement it always gets the one-partition
// write-back, whatever the worker setting.
//
// Contract:
//
//   - BeginConcurrentWrites is called once, serially, before the
//     goroutines fan out. It must perform any internal pre-write work
//     that is unsafe to run concurrently (e.g. a copy-on-write flip),
//     so that afterwards Add/AddSym calls on disjoint cells from
//     different goroutines are race-free. Its return value says whether
//     the layout stores both triangles: true means AddSym would touch
//     two cells, so the write-back writes each pair's canonical (upper)
//     cell with Add and lands the mirrors in a separate phase (no cell
//     is ever touched by two goroutines); false means the layout folds
//     a pair into one cell and AddSym is already a single-cell write.
//   - AlignConcurrentBoundary(r) rounds a tentative partition boundary
//     r up to the store's concurrent-write granularity (returning a
//     row in [r, N()]): two goroutines may only write concurrently when
//     every pair {a, b} they own lies on opposite sides of an aligned
//     boundary of min(a, b). Dense layouts return r unchanged; the
//     packed triangle rounds up to its next chunk-start row, since
//     writing a cell may mutate chunk-level bookkeeping.
type ConcurrentWriteStore interface {
	BeginConcurrentWrites() (mirror bool)
	AlignConcurrentBoundary(r int) int
}
