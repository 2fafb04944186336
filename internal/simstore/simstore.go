// Package simstore provides the pluggable similarity-store backends the
// engine keeps its SimRank matrix S in. The store is the memory wall of
// the whole system — S is Θ(n²) output — so the backend choice decides
// which graphs are servable at all:
//
//   - dense:  the classic row-major n×n float64 matrix (8n² bytes), the
//     bit-exact baseline every other backend is measured against;
//   - packed: symmetric upper-triangular storage (8·n(n+1)/2 ≈ 4n²
//     bytes) — SimRank's S is symmetric, so the dense layout stores every
//     off-diagonal score twice; packed halves that while keeping the
//     exact incremental-update machinery (every write flows through the
//     symmetric AddSym, landing on one backing cell);
//   - approx: no materialized S at all — a Monte-Carlo sampling tier
//     over a stored-walk index (internal/montecarlo), O(n·(W·L + d))
//     memory, answering queries by reading the meeting points of stored
//     coalescing reverse walks with a reported standard error. Writable
//     through the graph: an edge update repairs exactly the invalidated
//     walk suffixes (ApplyUpdate), bit-identical to a fresh rebuild at
//     the same seed.
//
// Each store keeps its own S current: Store.Update and Recompute are
// the whole write path the engine calls. The exact stores (dense,
// packed) own the persistent core.Workspace Inc-SR and Inc-uSR run in
// and satisfy core.SimStore through their concrete cell methods; the
// approx store has no matrix cells and no exact write-backs, so it
// absorbs an update by repairing its walks instead.
package simstore

import (
	"fmt"

	"repro/internal/batch"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/matrix"
	"repro/internal/metrics"
)

// Backend names a similarity-store implementation.
type Backend string

const (
	// BackendDense is the n×n row-major float64 store (8n² bytes).
	BackendDense Backend = "dense"
	// BackendPacked is the symmetric upper-triangular store (≈4n² bytes).
	BackendPacked Backend = "packed"
	// BackendApprox is the Monte-Carlo stored-walk sampling tier
	// (O(n·(W·L+d)) bytes, writable via incremental walk repair).
	BackendApprox Backend = "approx"
)

// ParseBackend validates a backend name ("" selects dense), the single
// parser behind Options.Backend and the simrankd -backend flag.
func ParseBackend(s string) (Backend, error) {
	switch Backend(s) {
	case "", BackendDense:
		return BackendDense, nil
	case BackendPacked:
		return BackendPacked, nil
	case BackendApprox:
		return BackendApprox, nil
	}
	return "", fmt.Errorf("simstore: unknown backend %q (want dense, packed or approx)", s)
}

// Params are the engine constants the write path reads: the damping
// factor C, the iteration count K, and whether exact updates run Inc-uSR
// (Algorithm 1) instead of Inc-SR (Algorithm 2).
type Params struct {
	C         float64
	K         int
	NoPruning bool
}

// Store is a similarity matrix S behind an interface, so the engine,
// snapshots and the HTTP server are all backend-agnostic. Every store is
// square (n×n) and logically symmetric.
//
// Concurrency: the read methods (N through Seal) are safe for concurrent
// readers. The write methods (Update through SetWorkers) belong to the single
// writer, require exclusive access and are never called on a sealed view
// (the sealedwrite analyzer rejects such a call).
//
// # The Seal copy-on-write contract
//
// Seal returns an immutable point-in-time view of the store: the MVCC
// read path publishes one per epoch, and any number of readers may query
// it concurrently while the single writer keeps mutating the original.
// Sealing is cheap — it shares the backing payload — and the writer
// copies only what it changes:
//
//   - dense and packed share one double-buffered flat payload (cells):
//     once sealed, the store logs the offset of every cell it writes,
//     and the first write after a Seal copies exactly the logged cells
//     into the second buffer and swaps the two — or copies every cell
//     when the log has outgrown 1/8 of the payload, the buffer is new or
//     abandoned, or a full rewrite left it stale. A warm writer re-uses
//     two fixed buffers and stays allocation-free;
//   - approx copy-on-writes per node: a sealed view shares every node's
//     stored walks, and the writer clones one node's walk row the first
//     time a repair touches it after a Seal.
//
// A store that has never been sealed pays nothing for any of this: it
// holds one buffer, logs nothing, and its write paths skip the
// copy-on-write checks' slow half entirely.
//
// Every update runs on the writer's goroutine, on every backend: the
// only fan-out is the exact stores' batch kernel (SetWorkers).
type Store interface {
	// N returns the node count.
	N() int
	// At returns s(i, j). On the approx backend this is a sampling
	// estimate — a deterministic pure read of the stored walks.
	At(i, j int) float64
	// ConcurrentRow returns row i in a form safe under concurrent
	// readers: an immutable alias (dense) or a fresh copy (packed,
	// approx).
	ConcurrentRow(i int) []float64
	// UpperRow returns the entries (a, a), (a, a+1), …, (a, n−1) as a
	// race-free alias of backing storage — the global top-k scan shape.
	// Exact stores only; the approx store panics.
	UpperRow(a int) []float64
	// ToDense materializes the full matrix, or nil when that is the
	// point of the backend not to (approx).
	ToDense() *matrix.Dense
	// MemBytes reports the store's resident size in bytes — the
	// /stats "store_bytes" figure. The serving payload only: the exact
	// backends' MVCC double buffer is not counted (it is the writer's
	// cost, not the view's).
	MemBytes() int64
	// Backend names the implementation.
	Backend() Backend
	// Seal returns an immutable point-in-time view of the store, safe
	// for any number of concurrent readers; see the package contract
	// above. Sealing an already-sealed view returns the receiver.
	//
	// Exact-store caveat: the dense and packed double buffer recycles
	// the buffer of the second-newest view, so before the first write
	// after a Seal the caller must either know that every older view has
	// no readers left or call AbandonBack to orphan the buffer to the
	// GC (RecyclesBufferOf names the view that matters). Approx views
	// are intrinsically safe at any age.
	Seal() Store

	// Update applies one unit update to S. g is the graph before the
	// update: the exact stores build their workspace from it on first
	// use, the approx store validates against it. Update validates
	// before writing — a rejected update returns *core.ErrBadUpdate and
	// leaves the store untouched — and never mutates g; the caller
	// applies up to g once Update succeeds. The returned DirtyRows name
	// the rows of S whose scores may have moved.
	Update(g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error)
	// Recompute applies ups to g, then rebuilds S from scratch over the
	// result. ups carries ApplyBatch's recompute crossover: a batch the
	// caller has validated, applied here with no incremental work. A
	// plain recompute passes nil.
	Recompute(g *graph.DiGraph, ups []graph.Update, p Params)
	// AddNodes returns a store over n+count nodes: old scores preserved,
	// new rows zero except s(v, v) = diag (the approx backend grows its
	// walk index in place — diag is implicit, s(v,v) = 1 by definition —
	// and returns the receiver). The grown store keeps the receiver's
	// worker setting.
	AddNodes(count int, diag float64) Store
	// SetWorkers bounds the goroutines the exact stores' batch kernel
	// (Recompute) fans out across; 0 selects GOMAXPROCS, and every
	// setting gives bit-identical results. Updates run on the calling
	// goroutine at every setting, and approx, which has no batch kernel,
	// ignores it.
	SetWorkers(workers int)
}

// Sampler is the optional query surface of sampling backends: top-k by
// estimation with refinement, and per-pair standard errors. The engine
// routes queries through it when the store provides it.
type Sampler interface {
	// TopKRow estimates the k nodes most similar to a, highest first.
	TopKRow(a, k int) []metrics.Pair
	// PairStderr estimates s(a, b) together with the standard error of
	// the estimate.
	PairStderr(a, b int) (est, stderr float64)
}

// New builds a store of backend b holding S for g's current topology.
// The exact backends run the batch kernel across workers goroutines; the
// approx backend samples its walk index with the given per-pair walk
// budget and seed root (walks and seed are ignored elsewhere), capping
// walks at p.K steps — the depth an exact K-iteration store truncates at.
func New(b Backend, g *graph.DiGraph, p Params, workers, walks int, seed int64) (Store, error) {
	switch b {
	case BackendDense:
		x := exact{workers: workers}
		d := WrapDense(batchScores(x.workspace(g), p, workers))
		d.exact = x
		return d, nil
	case BackendPacked:
		// The triangle is allocated before the kernel's two transient n×n
		// buffers; the other order raises the process's peak RSS.
		s := NewPacked(g.N())
		s.workers = workers
		s.SetFromDense(batchScores(s.workspace(g), p, workers))
		return s, nil
	case BackendApprox:
		a, err := NewApprox(g, p.C, p.K, walks, seed)
		if err != nil {
			return nil, err
		}
		return a, nil
	}
	return nil, fmt.Errorf("simstore: unknown backend %q", b)
}

// batchScores runs the batch kernel over ws's transition matrix into a
// fresh n×n matrix, ping-ponging through a transient scratch buffer the
// caller does not retain.
func batchScores(ws *core.Workspace, p Params, workers int) *matrix.Dense {
	n := ws.N()
	out := matrix.NewDense(n, n)
	batch.MatrixFormInto(out, matrix.NewDense(n, n), ws.TransitionCSR(), p.C, p.K, workers)
	return out
}
