package core

import (
	"runtime"

	"repro/internal/matrix"
)

// This file is the row-parallel execution substrate of the incremental
// update path. Every stage of an update is one routine that runs inline
// at one partition and on a persistent worker pool at more. The
// contract is bit-identity at every worker count: a fan-out never
// splits the floating-point accumulations INTO ANY ONE CELL across
// goroutines — it only spreads disjoint row (or cell) ownership.
// Concretely:
//
//   - mulQ and the rank-one M accumulation are embarrassingly row
//     parallel: each output row's gather/multiply-add order is exactly
//     the one-partition loop's, so any contiguous row partition yields
//     the same float stream.
//   - Inc-uSR's S write-back assigns every unordered pair {a, b} to the
//     worker owning row min(a, b), which computes the pair's single
//     delta from the same operands in the same order at any partition.
//     Stores advertise how concurrent owners may write through the
//     ConcurrentWriteStore contract (store.go): packed folds a pair
//     into the min row's chunk, so chunk-aligned partitions make owners
//     conflict-free; dense splits into an upper-triangle phase and a
//     mirror phase so no two goroutines ever touch one cell.
//   - Inc-SR's pruned write-back is serial at every worker count (see
//     IncSR): its cost is the affected support, not n², and the claim
//     order of its scan is what defines each cell's accumulation order.
//   - Per-worker dirty rows and affected-pair counts accumulate in
//     worker-private scratch and merge in worker order after the
//     barrier, so the merged result is deterministic no matter which
//     goroutine finishes first.
//
// The goroutines themselves are a persistent pool owned by the
// Workspace: spawned once (a cold path, see ensurePool), then fed tasks
// over per-worker channels, which keeps a warm parallel Apply at zero
// heap allocations. SetWorkers must only be called between updates (the
// engine serializes it under its writer mutex).

// autoMinN is the smallest node count at which Workers == 0 (auto)
// resolves to a parallel update: below it the per-update work is so
// small that fan-out overhead dominates, so auto stays serial. An
// explicit Workers > 1 always parallelizes — that is what lets the
// equivalence suites drive the parallel path on tiny graphs.
const autoMinN = 2048

// parTask names one row-partitioned fan-out job; parameters travel in
// the Workspace's staged par* fields, written before dispatch and read
// only after the barrier (the channel handoff orders them).
type parTask int

const (
	taskMulQ parTask = iota
	taskAddOuter
	taskUSRWriteback
	taskUSRMirror
	taskSRAccum
)

// workerScratch is one worker's private write-back accumulation state:
// the dirty rows it marked and the affected-pair count it tallied,
// merged deterministically (worker order) after the barrier. The pad
// keeps neighboring workers' hot counters off one cache line.
type workerScratch struct {
	dirtyMark []bool
	dirtyRows []int
	affected  int
	_         [72]byte
}

// mark records row r into the worker-private dirty set.
//
//simrank:noalloc
func (sc *workerScratch) mark(r int) {
	if !sc.dirtyMark[r] {
		sc.dirtyMark[r] = true
		sc.dirtyRows = append(sc.dirtyRows, r)
	}
}

// updatePool is the persistent goroutine pool: worker w (1-based; chunk
// 0 always runs inline on the dispatching goroutine) blocks on jobs[w-1]
// and reports each completed task on done.
type updatePool struct {
	jobs []chan parTask
	done chan struct{}
	size int // spawned goroutines = max fan-out minus the inline chunk
}

// SetWorkers reconfigures the update-path worker count (0 = auto:
// GOMAXPROCS for n ≥ autoMinN, serial below; 1 = serial; > 1 = that
// many goroutines). It tears the pool down so the next parallel
// dispatch respawns at the new width, and therefore MUST NOT run
// concurrently with an update — the engine calls it between updates,
// under the same writer mutex that serializes Apply.
func (ws *Workspace) SetWorkers(workers int) {
	if workers < 0 {
		workers = 0
	}
	if workers == ws.workers {
		return
	}
	ws.workers = workers
	ws.StopPool()
}

// StopPool terminates the persistent worker goroutines (idempotent).
// Callers that drop a Workspace with a live pool — engine teardown,
// AddNodes' rebuild — must stop it first or the blocked goroutines leak
// for the process lifetime.
func (ws *Workspace) StopPool() {
	if ws.pool == nil {
		return
	}
	for _, ch := range ws.pool.jobs {
		close(ch)
	}
	ws.pool = nil
}

// resolveWorkers maps the configured worker count to this update's
// effective fan-out width — a pure function of (workers, n), so the
// serial/parallel choice is deterministic per configuration.
//
//simrank:noalloc
func (ws *Workspace) resolveWorkers() int {
	w := ws.workers
	if w == 0 {
		if ws.n < autoMinN {
			return 1
		}
		w = runtime.GOMAXPROCS(0)
	}
	if w > ws.n {
		w = ws.n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ensurePool (re)spawns the persistent worker goroutines for a fan-out
// of parts. One-time warm-up: every allocation here (channels, the
// goroutines themselves) happens once per SetWorkers, after which warm
// dispatches reuse the pool allocation-free.
//
//simrank:coldpath
func (ws *Workspace) ensurePool(parts int) {
	if ws.pool != nil && ws.pool.size >= parts-1 {
		return
	}
	ws.StopPool()
	p := &updatePool{
		jobs: make([]chan parTask, parts-1),
		done: make(chan struct{}, parts-1),
		size: parts - 1,
	}
	for i := range p.jobs {
		ch := make(chan parTask, 1)
		p.jobs[i] = ch
		w := i + 1
		go func() {
			for task := range ch {
				ws.runChunk(task, w)
				p.done <- struct{}{}
			}
		}()
	}
	ws.pool = p
}

// ensureParScratch sizes the per-worker scratch and the partition
// bounds for a fan-out of parts. One-time warm-up, like ensurePool.
//
//simrank:coldpath
func (ws *Workspace) ensureParScratch(parts int) {
	for len(ws.wscratch) < parts {
		ws.wscratch = append(ws.wscratch, workerScratch{})
	}
	for i := 0; i < parts; i++ {
		if len(ws.wscratch[i].dirtyMark) < ws.n {
			ws.wscratch[i].dirtyMark = make([]bool, ws.n)
		}
	}
	if len(ws.bounds) < parts+1 {
		ws.bounds = make([]int, parts+1)
	}
}

// parRun fans the staged task out: chunks 1..parts−1 go to the pool,
// chunk 0 runs inline, and the barrier completes when every worker has
// reported. One partition runs inline without touching the pool.
// Channel sends/receives of scalar values allocate nothing, so a warm
// dispatch is free of heap traffic.
//
//simrank:noalloc
func (ws *Workspace) parRun(task parTask, parts int) {
	if parts == 1 {
		ws.runChunk(task, 0)
		return
	}
	ws.ensurePool(parts)
	p := ws.pool
	for w := 1; w < parts; w++ {
		p.jobs[w-1] <- task
	}
	ws.runChunk(task, 0)
	for w := 1; w < parts; w++ {
		<-p.done
	}
}

// runChunk executes worker w's chunk [bounds[w], bounds[w+1]) of the
// staged task.
//
//simrank:noalloc
func (ws *Workspace) runChunk(task parTask, w int) {
	lo, hi := ws.bounds[w], ws.bounds[w+1]
	switch task {
	case taskMulQ:
		ws.mulQRange(ws.parDst, ws.parX, lo, hi)
	case taskAddOuter:
		matrix.AddOuterRows(ws.mDense, 1, ws.parX, ws.parY, lo, hi)
	case taskUSRWriteback:
		ws.usrWritebackRange(w, lo, hi)
	case taskUSRMirror:
		ws.usrMirrorRange(lo, hi)
	case taskSRAccum:
		ws.srAccumRange(lo, hi)
	}
}

// evenBounds partitions k items into parts contiguous, evenly sized
// ranges — the right split when per-item work is uniform (mulQ rows,
// M-row accumulations).
//
//simrank:noalloc
func (ws *Workspace) evenBounds(k, parts int) {
	for w := 0; w <= parts; w++ {
		ws.bounds[w] = w * k / parts
	}
}

// mergeScratch folds the per-worker dirty sets and affected-pair
// tallies into the workspace records in worker order — the same merged
// result no matter which goroutine finished first — clearing each
// worker's scratch for the next update.
//
//simrank:noalloc
func (ws *Workspace) mergeScratch(parts int) int {
	affected := 0
	for w := 0; w < parts; w++ {
		sc := &ws.wscratch[w]
		affected += sc.affected
		sc.affected = 0
		for _, r := range sc.dirtyRows {
			sc.dirtyMark[r] = false
			ws.markDirty(r)
		}
		sc.dirtyRows = sc.dirtyRows[:0]
	}
	return affected
}

// mulQPar is mulQ fanned across parts workers: output rows partition
// evenly, each row's gather order is the serial one.
//
//simrank:noalloc
func (ws *Workspace) mulQPar(dst, x []float64, parts int) {
	if parts <= 1 {
		ws.mulQRange(dst, x, 0, ws.n)
		return
	}
	ws.evenBounds(ws.n, parts)
	ws.parDst, ws.parX = dst, x
	ws.parRun(taskMulQ, parts)
	ws.parDst, ws.parX = nil, nil
}

// addOuterPar accumulates x·yᵀ into the dense M scratch across parts
// workers (Inc-uSR's per-iteration rank-one term).
//
//simrank:noalloc
func (ws *Workspace) addOuterPar(x, y []float64, parts int) {
	if parts <= 1 {
		matrix.AddOuterRows(ws.mDense, 1, x, y, 0, ws.n)
		return
	}
	ws.evenBounds(ws.n, parts)
	ws.parX, ws.parY = x, y
	ws.parRun(taskAddOuter, parts)
	ws.parX, ws.parY = nil, nil
}

// usrBounds partitions rows 0..n−1 by upper-triangle area (row a weighs
// n−a, its pair count including the diagonal) so Inc-uSR's triangular
// write-back balances, aligning every boundary to the store's
// concurrent-write granularity.
//
//simrank:noalloc
func (ws *Workspace) usrBounds(parts int, cs ConcurrentWriteStore) {
	n := ws.n
	total := n * (n + 1) / 2
	area, r := 0, 0
	ws.bounds[0] = 0
	for w := 1; w < parts; w++ {
		target := total * w / parts
		for r < n && area < target {
			area += n - r
			r++
		}
		for r2 := cs.AlignConcurrentBoundary(r); r < r2; r++ {
			area += n - r
		}
		ws.bounds[w] = r
	}
	ws.bounds[parts] = n
}

// mirrorBounds partitions rows by lower-triangle area (row b weighs b)
// for the dense mirror phase. No store alignment: the mirror phase only
// runs on the dense layout, whose boundary is every row.
//
//simrank:noalloc
func (ws *Workspace) mirrorBounds(parts int) {
	n := ws.n
	total := n * (n - 1) / 2
	area, r := 0, 0
	ws.bounds[0] = 0
	for w := 1; w < parts; w++ {
		target := total * w / parts
		for r < n && area < target {
			area += r
			r++
		}
		ws.bounds[w] = r
	}
	ws.bounds[parts] = n
}

// usrWriteback is Inc-uSR's S̃ = S + M + Mᵀ (Algorithm 1 line 18). Each
// worker owns a contiguous row range and writes its rows' diagonal and
// upper-triangle cells; every unordered pair is visited by exactly one
// worker, with the delta computed in one operand order (M[a][b] +
// M[b][a]), so the stored bits cannot depend on the partition. One
// partition — always the case for a store without ConcurrentWriteStore
// — runs inline over [0, n) with AddSym. Returns the merged
// affected-pair count.
//
//simrank:noalloc
func (ws *Workspace) usrWriteback(s SimStore, parts int) int {
	cs, ok := s.(ConcurrentWriteStore)
	if !ok {
		parts = 1
	}
	mirror := false
	if parts > 1 {
		mirror = cs.BeginConcurrentWrites()
		ws.usrBounds(parts, cs)
	} else {
		ws.bounds[0], ws.bounds[1] = 0, ws.n
	}
	ws.parS, ws.parMirror = s, mirror
	ws.parRun(taskUSRWriteback, parts)
	affected := ws.mergeScratch(parts)
	if mirror {
		// Dense phase 2: write the lower-triangle mirrors, restricted to
		// the dirty rows phase 1 recorded (now merged into ws.dirtyMark).
		ws.mirrorBounds(parts)
		ws.parRun(taskUSRMirror, parts)
	}
	ws.parS = nil
	return affected
}

// usrWritebackRange is one worker's Inc-uSR phase-1 chunk: rows
// lo..hi−1, diagonal plus upper triangle, with writes routed per the
// store's concurrent contract and bookkeeping kept worker-private: dirty
// rows land in the worker's scratch (sc.mark) and reach markDirty in
// mergeScratch after the barrier. Any exactly non-zero delta dirties its
// rows — deltas inside (0, ZeroTol] are still added to S, so a
// tolerance-based test here would let a cache serve stale bits — while
// zero deltas are skipped outright: adding 0.0 cannot change a stored
// value, and the skip keeps a copy-on-write store's write set equal to
// the dirty set.
//
//simrank:nodirty
//simrank:noalloc
func (ws *Workspace) usrWritebackRange(w, lo, hi int) {
	s, mirror, m, n := ws.parS, ws.parMirror, ws.mDense, ws.n
	sc := &ws.wscratch[w]
	for a := lo; a < hi; a++ {
		mrow := m.Row(a)
		d := mrow[a] + m.At(a, a)
		if d > ZeroTol || d < -ZeroTol {
			sc.affected++
		}
		if d != 0 {
			sc.mark(a)
			s.Add(a, a, d)
		}
		for b := a + 1; b < n; b++ {
			d := mrow[b] + m.At(b, a)
			if d > ZeroTol || d < -ZeroTol {
				sc.affected += 2 // both ordered entries
			}
			if d != 0 {
				sc.mark(a)
				sc.mark(b)
				if mirror {
					s.Add(a, b, d)
				} else {
					s.AddSym(a, b, d)
				}
			}
		}
	}
}

// usrMirrorRange is one worker's Inc-uSR phase-2 chunk on the dense
// layout: for its rows b it lands the lower-triangle cell (b, a) of
// every pair phase 1 wrote, recomputing the identical delta from the
// untouched M. Rows (and columns) outside the merged dirty set cannot
// hold a written pair and are skipped. Every row written here was
// already marked dirty by phase 1's scratch merge.
//
//simrank:nodirty
//simrank:noalloc
func (ws *Workspace) usrMirrorRange(lo, hi int) {
	s, m := ws.parS, ws.mDense
	for b := lo; b < hi; b++ {
		if !ws.dirtyMark[b] {
			continue
		}
		mrowB := m.Row(b)
		for a := 0; a < b; a++ {
			if !ws.dirtyMark[a] {
				continue
			}
			// The serial operand order, bit for bit: M[a][b] + M[b][a].
			if d := m.At(a, b) + mrowB[a]; d != 0 {
				s.Add(b, a, d)
			}
		}
	}
}

// srAccum adds Inc-SR's rank-one term ξ·ηᵀ into the pooled M rows
// (Algorithm 2 lines 13–19) and grows the column support by supp(η).
// The rows are claimed first, serially — pool draws and rowSupp
// bookkeeping must not race — then the term accumulates over the whole
// support inline, or fans out when the support has at least parts rows.
// No two workers share a row and each row's loop is the same either
// way, so the bits cannot depend on the split.
//
//simrank:noalloc
func (ws *Workspace) srAccum(xi, eta *wsVec, parts int) {
	colSupp := ws.colSupp
	for _, b := range eta.supp {
		if !colSupp.mark[b] {
			colSupp.add(b, 1)
		}
	}
	for _, a := range xi.supp {
		ws.claimRow(a)
	}
	// Frontier ≈ full row: a contiguous multiply-add beats the indexed
	// gather (zero entries contribute nothing).
	ws.parXi, ws.parEta, ws.parDenseEta = xi, eta, len(eta.supp) > ws.n/2
	if parts > 1 && len(xi.supp) >= parts {
		ws.evenBounds(len(xi.supp), parts)
		ws.parRun(taskSRAccum, parts)
	} else {
		ws.srAccumRange(0, len(xi.supp))
	}
	ws.parXi, ws.parEta = nil, nil
}

// srAccumRange accumulates ξ·ηᵀ into the claimed M rows indexed by
// xi.supp[lo..hi−1].
//
//simrank:noalloc
func (ws *Workspace) srAccumRange(lo, hi int) {
	xi, eta := ws.parXi, ws.parEta
	for k := lo; k < hi; k++ {
		a := xi.supp[k]
		va := xi.vals[a]
		row := ws.mRows[a]
		if ws.parDenseEta {
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
