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
//     over a stored-walk index (internal/montecarlo), O(n·W·L) memory
//     beside the graph, answering queries by reading the meeting points
//     of stored coalescing reverse walks with a reported standard error.
//     Writable through the graph: an edge update repairs exactly the
//     invalidated walk suffixes (ApplyUpdate), bit-identical to a fresh
//     rebuild at the same seed.
//
// Each store keeps its own S current: Store.Update and Recompute are
// the whole write path the engine calls. The exact stores (dense,
// packed) own the persistent core.Workspace Inc-SR runs in and satisfy
// core.SimStore through their concrete cell methods; the
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
	// (O(n·W·L) bytes beside the graph, writable via incremental walk
	// repair).
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
// factor C, the iteration count K, and the goroutines the exact stores'
// batch kernel fans out across (0 selects GOMAXPROCS; every value gives
// bit-identical results). Updates run on the calling goroutine whatever
// Workers says, and approx, which has no batch kernel, ignores it.
type Params struct {
	C       float64
	K       int
	Workers int
}

// View is the read surface of a similarity matrix S, so the engine's
// queries, snapshots and the HTTP server are all backend-agnostic. Every
// store is square (n×n) and logically symmetric. Each Store is the View
// of its own current state, and Store.Seal returns an immutable one — a
// *DenseView, *PackedView or *ApproxView, types with no write method —
// so a write to a sealed view does not compile. Every method is a pure
// read, so a sealed view serves any number of concurrent readers.
type View interface {
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
}

// Store is the single writer of a similarity matrix: its View plus the
// write methods, which require exclusive access.
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
//   - approx copy-on-writes per node: a sealed view shares the walk
//     index's 64-row blocks (a Seal copies ⌈n/64⌉ block pointers), and
//     the writer clones a node's block header and then its walk row the
//     first time a repair changes them after a Seal.
//
// A store that has never been sealed pays nothing for any of this: it
// holds one buffer, logs nothing, and its write paths skip the
// copy-on-write checks' slow half entirely.
//
// Every update runs on the writer's goroutine, on every backend: the
// only fan-out is the exact stores' batch kernel (Params.Workers).
type Store interface {
	View
	// Seal returns an immutable point-in-time view of the store, safe
	// for any number of concurrent readers; see the contract above.
	//
	// Exact-store caveat: the dense and packed double buffer recycles
	// the buffer of the second-newest view, so before the first write
	// after a Seal the caller must either know that every older view has
	// no readers left or call AbandonBack to orphan the buffer to the
	// GC (RecyclesBufferOf names the view that matters). Approx views
	// are intrinsically safe at any age.
	Seal() View

	// Update applies one unit update to S and to g, which must be the
	// graph the store was built over: the exact stores' workspace and
	// the approx store's walk index read its in-lists in place. Update
	// validates first — a rejected update returns *core.ErrBadUpdate
	// and leaves the store and g untouched — then updates S and applies
	// up to g. The returned DirtyRows name the rows of S whose scores
	// may have moved.
	Update(g *graph.DiGraph, up graph.Update, p Params) (core.Stats, error)
	// Recompute applies ups to g, the graph the store was built over,
	// then rebuilds S from scratch over the result. ups carries
	// ApplyBatch's recompute crossover: a batch the
	// caller has validated, applied here with no incremental work. A
	// plain recompute passes nil.
	Recompute(g *graph.DiGraph, ups []graph.Update, p Params)
	// AddNodes returns a store over n+count nodes: old scores preserved,
	// new rows zero except s(v, v) = diag (the approx backend grows its
	// walk index in place — diag is implicit, s(v,v) = 1 by definition —
	// and returns the receiver).
	AddNodes(count int, diag float64) Store
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
// The exact backends run the batch kernel across p.Workers goroutines;
// the approx backend samples its walk index with the given per-pair walk
// budget and seed root (walks and seed are ignored elsewhere), capping
// walks at p.K steps — the depth an exact K-iteration store truncates at.
func New(b Backend, g *graph.DiGraph, p Params, walks int, seed int64) (Store, error) {
	switch b {
	case BackendDense:
		return WrapDense(batchScores(g, p)), nil
	case BackendPacked:
		// The triangle is allocated before the kernel's two transient n×n
		// buffers; in the other order a boot now and then peaks higher.
		s := NewPacked(g.N())
		s.SetFromDense(batchScores(g, p))
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

// batchScores runs the batch kernel over g into a fresh n×n matrix,
// with transient kernel scratch the caller does not retain.
func batchScores(g *graph.DiGraph, p Params) *matrix.Dense {
	n := g.N()
	out := matrix.NewDense(n, n)
	batch.MatrixFormScratch(out, batch.NewScratch(n), g, p.C, p.K, p.Workers)
	return out
}
