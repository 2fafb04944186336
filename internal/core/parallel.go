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
//   - Both S write-backs are serial at every worker count, so the
//     store is only ever written from the updating goroutine. Inc-SR's
//     (see IncSR) costs the affected support, not n², and the claim
//     order of its scan is what defines each cell's accumulation order;
//     Inc-uSR's (usrWriteback) is the paper's Θ(n²) baseline.
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
	taskSRAccum
)

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

// ensureBounds sizes the partition bounds for a fan-out of parts.
// One-time warm-up, like ensurePool.
//
//simrank:coldpath
func (ws *Workspace) ensureBounds(parts int) {
	if len(ws.bounds) < parts+1 {
		ws.bounds = make([]int, parts+1)
	}
}

// parRun fans the staged task out across parts ≥ 2 partitions: chunks
// 1..parts−1 go to the pool, chunk 0 runs inline, and the barrier
// completes when every worker has reported. Callers run one partition
// inline without calling it. Channel sends/receives of scalar values
// allocate nothing, so a warm dispatch is free of heap traffic.
//
//simrank:noalloc
func (ws *Workspace) parRun(task parTask, parts int) {
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
